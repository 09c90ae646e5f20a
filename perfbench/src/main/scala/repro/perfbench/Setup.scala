package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.baseline.EdgeStore
import repro.gen.GraphGen
import repro.graph.WGraph
import repro.spark.{PageRankWeights, SparkGraphStore}

import java.io._
import java.util.Properties
import scala.collection.mutable

/** Seconds spent in each public call of one set-up. */
final case class SetupParts(generateS: Double, storeS: Double, localS: Double) {
  def totalS: Double = generateS + storeS + localS
}

/** Everything before the first timed query: the Spark session, then the
  * workload's graph through the same pipeline as `repro.exp.Datasets`.
  *
  * Set-up runs in its own JVM, which hands the graph to the query JVM through
  * a file. With Spark in the query JVM about one run in four was 40–50%
  * slower on small queries, most likely because Spark's code changed the
  * JIT's type profiles of Scala library methods the search also calls.
  */
object Setup {

  /** Set-ups per run; the benchmark reports their median. */
  val Reps = 3

  /** Spark's local[N]: two task threads leave cores to the JIT compiler and
    * the collector during set-up.
    */
  private val Cores = 2

  def graphFile(workDir: String): File = new File(workDir, "graph.bin")
  def metricsFile(workDir: String): File = new File(workDir, "setup.properties")
  def refsFile(workDir: String): File = new File(workDir, "references.bin")

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def session(cores: Int, workDir: String): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  /** RMAT edges → PageRank weights → [[SparkGraphStore]] → local graph,
    * and the edge store when the workload reads one.
    */
  private def build(spark: SparkSession, spec: GraphSpec,
                    withEdgeStore: Boolean): (WGraph, SetupParts) = {
    var t0 = System.nanoTime()
    val edges = GraphGen.rmat(spark, spec.scale, spec.edgeFactor, spec.rmatSeed)
    val weights = PageRankWeights.compute(spark, edges)
    val generateS = seconds(t0)
    t0 = System.nanoTime()
    val store = SparkGraphStore.build(spark, edges, weights)
    val storeS = seconds(t0)
    t0 = System.nanoTime()
    val graph = store.toLocal
    if (withEdgeStore) EdgeStore.fromGraph(graph)
    val localS = seconds(t0)
    store.unpersist()
    (graph, SetupParts(generateS, storeS, localS))
  }

  /** Sets the workload up `Reps` times from scratch, then writes the last
    * graph, the set-up metrics and the reference answers (untimed) to
    * `workDir`.
    */
  def run(w: Workload, workDir: String): Unit = {
    val cores = math.min(Cores, Runtime.getRuntime.availableProcessors)
    val t0 = System.nanoTime()
    val spark = session(cores, workDir)
    val sparkS = seconds(t0)
    val parts = mutable.ArrayBuffer.empty[SetupParts]
    var graph: WGraph = null
    try {
      for (_ <- 0 until Reps) {
        val (g, p) = build(spark, w.graph, w.mix.exists(_.kind == Kind.SemiExternal))
        require(graph == null || GraphFile.hash(g) == GraphFile.hash(graph),
          "set-up is not deterministic")
        graph = g
        parts += p
      }
    } finally spark.stop()
    GraphFile.write(graph, graphFile(workDir))
    RefsFile.write(w.mix, Queries.references(w.mix, graph), refsFile(workDir))
    val m = new Properties
    def put(k: String, v: Any): Unit = m.setProperty(k, v.toString)
    put("setup_s", sparkS + median(parts.map(_.totalS).toSeq))
    put("setup.spark_s", sparkS)
    put("setup.generate_s", median(parts.map(_.generateS).toSeq))
    put("setup.store_s", median(parts.map(_.storeS).toSeq))
    put("setup.local_s", median(parts.map(_.localS).toSeq))
    put("graph.hash", GraphFile.hash(graph))
    val out = new FileOutputStream(metricsFile(workDir))
    try m.store(out, null) finally out.close()
    println(s"set-up of ${w.name}: Spark local[$cores] in ${f"$sparkS%.2f"} s, then $Reps graph " +
      s"set-ups in ${parts.map(p => f"${p.totalS}%.2f").mkString(", ")} s")
  }

  def metrics(workDir: String): Properties = {
    val m = new Properties
    val in = new FileInputStream(metricsFile(workDir))
    try m.load(in) finally in.close()
    m
  }
}

/** The graph handed from the set-up JVM to the query JVM: weights, ids and
  * `adjHi` rows by rank, rebuilt with the `WGraph.fromRanked` that `toLocal`
  * uses.
  */
object GraphFile {

  def write(g: WGraph, f: File): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f)))
    try {
      out.writeInt(g.n)
      for (u <- 0 until g.n) {
        out.writeDouble(g.weights(u))
        out.writeLong(g.origId(u))
        out.writeInt(g.adjHi(u).length)
        g.adjHi(u).foreach(out.writeInt)
      }
    } finally out.close()
  }

  def read(f: File): WGraph = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(f)))
    try {
      val n = in.readInt()
      val weights = new Array[Double](n)
      val ids = new Array[Long](n)
      val pairs = mutable.ArrayBuffer.empty[(Int, Int)]
      for (u <- 0 until n) {
        weights(u) = in.readDouble()
        ids(u) = in.readLong()
        for (_ <- 0 until in.readInt()) pairs += ((in.readInt(), u))
      }
      WGraph.fromRanked(weights, ids, pairs)
    } finally in.close()
  }

  /** Hash of the weights, ids and adjacency by rank. */
  def hash(g: WGraph): Long = {
    var h = g.n.toLong
    def mix(x: Long): Unit = { h = (h ^ x) * 0x9E3779B97F4A7C15L; h ^= h >>> 29 }
    for (u <- 0 until g.n) {
      mix(java.lang.Double.doubleToLongBits(g.weights(u)))
      mix(g.origId(u))
      g.adjHi(u).foreach(v => mix(v.toLong))
      mix(-1L)
    }
    h
  }
}

/** The reference answers of a mix, in mix order, so that every query JVM of
  * a run checks against one computation.
  */
object RefsFile {

  def write(mix: Seq[Query], refs: Map[Query, IndexedSeq[Digest]], f: File): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f)))
    try for (q <- mix) {
      out.writeInt(refs(q).length)
      for (d <- refs(q)) {
        out.writeLong(d.keyId)
        out.writeDouble(d.influence)
        out.writeInt(d.size)
        out.writeLong(d.memberHash)
      }
    } finally out.close()
  }

  def read(mix: Seq[Query], f: File): Map[Query, IndexedSeq[Digest]] = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(f)))
    try mix.map { q =>
      q -> IndexedSeq.fill(in.readInt())(
        Digest(in.readLong(), in.readDouble(), in.readInt(), in.readLong()))
    }.toMap
    finally in.close()
  }
}
