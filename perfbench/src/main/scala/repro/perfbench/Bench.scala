package repro.perfbench

import repro.baseline.EdgeStore

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal

/** The repository benchmark: one closed-loop client issuing a workload's
  * seeded top-k queries through the public entry points, every answer checked
  * against another entry point.
  *
  * {{{
  * Bench setup --workload <name> --work-dir <dir>
  * Bench queries --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
  * }}}
  *
  * `setup` runs [[Setup]] and leaves the graph and the set-up metrics in the
  * work directory; `queries`, in a fresh JVM, runs the client on that graph.
  * With `--trace 0` it times the entry points and prints the end-to-end
  * metrics. With `--trace 1` it replays each query's rounds through the
  * public call of every layer (see [[Replay]]) and prints the per-layer
  * metrics. The last line of standard output is the result as one JSON object.
  */
object Bench {

  private val WarmupSeconds = 3.0
  private val WarmupCycles = 2
  /** δ of every entry point; Lemma 3.8 bounds the optimality ratio by 2δ. */
  private val Delta = 2.0

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        workDir: String)

  private def options(argv: Seq[String]): Map[String, String] =
    argv.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap

  private def get(kv: Map[String, String], k: String): String =
    kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))

  private def parse(argv: Seq[String]): Args = {
    val kv = options(argv)
    def get(k: String) = Bench.get(kv, k)
    val seconds = get("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    Args(Workloads.byName(get("workload")), get("seed").toLong, seconds, trace, get("work-dir"))
  }

  private def millis(ns: Double): Double = ns / 1e6

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Linear-interpolated percentile of unsorted samples. */
  private def percentile(samples: Array[Long], q: Double): Double = {
    val s = samples.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  private def matches(q: Query, a: Seq[repro.core.Community],
                      refs: Map[Query, IndexedSeq[Digest]]): Boolean = {
    val ok = Digest.all(a) == refs(q)
    if (!ok) System.err.println(s"perfbench: wrong answer for $q")
    ok
  }

  def main(argv: Array[String]): Unit = {
    try argv.headOption match {
      case Some("setup") =>
        val kv = options(argv.toSeq.tail)
        Setup.run(Workloads.byName(get(kv, "workload")), get(kv, "work-dir"))
      case Some("queries") => run(parse(argv.toSeq.tail))
      case _ => throw new IllegalArgumentException("usage: Bench setup|queries --option value ...")
    } catch {
      case e: IllegalArgumentException =>
        System.err.println(s"perfbench: ${e.getMessage}")
        sys.exit(2)
    }
  }

  private def run(args: Args): Unit = {
    val w = args.workload
    val setup = Setup.metrics(args.workDir)
    val g = GraphFile.read(Setup.graphFile(args.workDir))
    require(GraphFile.hash(g).toString == setup.getProperty("graph.hash"),
      "the graph read back differs from the one set up")
    val target = new Target(g,
      if (w.mix.exists(_.kind == Kind.SemiExternal)) EdgeStore.fromGraph(g) else null)
    println(s"workload ${w.name}: graph ${w.graph.name} (RMAT scale ${w.graph.scale}, " +
      s"edge factor ${w.graph.edgeFactor}, seed ${w.graph.rmatSeed}) " +
      s"n=${g.n} m=${g.m} size=${g.size}; 1 closed-loop client; " +
      s"heap ${Runtime.getRuntime.maxMemory >> 20} MB; mix of ${w.mix.length}: ${w.mix.mkString(" ")}")

    val refs = RefsFile.read(w.mix, Setup.refsFile(args.workDir))
    val rnd = new Random(args.seed)
    // Metrics in the order they are printed: name → (value, unit).
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    def report(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)
    var attempted = 0L
    var failed = 0L

    def warmUp(body: Query => Unit): Unit = {
      val start = System.nanoTime()
      var cycles = 0
      while (cycles < WarmupCycles || seconds(start) < WarmupSeconds) {
        w.cycle(rnd).foreach(body)
        cycles += 1
      }
    }

    /** Runs cycles of the mix until `args.seconds` have passed. A query fails
      * when `body` returns false or throws.
      */
    def timedLoop(body: Query => Boolean): Unit = {
      val start = System.nanoTime()
      while (seconds(start) < args.seconds) {
        for (q <- w.cycle(rnd)) {
          attempted += 1
          val ok = try body(q) catch {
            case NonFatal(e) =>
              System.err.println(s"perfbench: $q threw $e")
              false
          }
          if (!ok) failed += 1
        }
      }
    }

    if (!args.trace) {
      warmUp(q => Queries.run(q, target))
      val latencies = mutable.ArrayBuilder.make[Long]
      val firsts = mutable.ArrayBuilder.make[Long]
      val byQuery = w.mix.map(_ -> mutable.ArrayBuilder.make[Long]).toMap
      timedLoop { q =>
        val t = System.nanoTime()
        val a = Queries.run(q, target)
        val ns = System.nanoTime() - t
        latencies += ns
        byQuery(q) += ns
        if (w.firstReportSampled(q)) firsts += (if (a.firstNs >= 0) a.firstNs else ns)
        matches(q, a.communities, refs)
      }
      val lat = latencies.result()
      val busyS = lat.sum / 1e9
      System.gc()
      System.gc()
      val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

      report("setup_s", setup.getProperty("setup_s").toDouble, "s")
      report("queries_per_s", lat.length / busyS, "1/s")
      report("query_p50_ms", millis(percentile(lat, 0.50)), "ms")
      report("query_p95_ms", millis(percentile(lat, 0.95)), "ms")
      report("query_p99_ms", millis(percentile(lat, 0.99)), "ms")
      report("first_report_p50_ms", millis(percentile(firsts.result(), 0.50)), "ms")
      report("heap_live_mb", heapMb, "MB")
      println(f"queries ${lat.length} in $busyS%.3f s of query time; " +
        f"failed_frac ${failed.toDouble / attempted}%.6f ratio")
      println("median ms per query: " + w.mix.map(q =>
        f"$q=${millis(percentile(byQuery(q).result(), 0.5))}%.3f").mkString(" "))
    } else {

      /** One query untraced, then replayed traced: the replay must give the
        * entry point's communities and statistics, and both the reference.
        */
      def paired(q: Query): (Long, Replayed, Long, Boolean) = {
        val t = System.nanoTime()
        val a = Queries.run(q, target)
        val untracedNs = System.nanoTime() - t
        val gc0 = gcMillis()
        val r = Replay.run(q, target)
        val gcMs = gcMillis() - gc0
        val io = EdgeIo(r.trace.fetchRows, r.trace.resident)
        val same = Digest.all(r.communities) == Digest.all(a.communities) &&
          a.stats.forall(_ == r.stats) && a.io.forall(_ == io)
        if (!same) System.err.println(s"perfbench: replay of $q differs from its entry point: " +
          s"${a.stats} ${a.io} vs ${r.stats} $io")
        (untracedNs, r, gcMs, same && matches(q, a.communities, refs))
      }

      // One replay per distinct query gives the exact work counters.
      val counted = w.mix.map { q =>
        attempted += 1
        val (_, r, _, ok) = paired(q)
        if (!ok) failed += 1
        r.trace
      }
      warmUp(q => paired(q))

      var n = 0L
      var untracedNs = 0L
      // fetch, build, peel, enumerate, materialise, total (ns); gc (ms)
      val sums = new Array[Long](7)
      timedLoop { q =>
        val (u, r, gcMs, ok) = paired(q)
        val tr = r.trace
        n += 1
        untracedNs += u
        sums(0) += tr.fetchNs
        sums(1) += tr.buildNs
        sums(2) += tr.peelNs
        sums(3) += tr.enumerateNs
        sums(4) += tr.materialiseNs
        sums(5) += tr.totalNs
        sums(6) += gcMs
        ok
      }
      val total = sums(5).toDouble
      def layer(name: String, ns: Long): Unit = {
        report(s"$name.ms", millis(ns.toDouble / n), "ms")
        report(s"$name.share", ns / total, "ratio")
      }
      def perQuery(f: Trace => Double): Double = counted.map(f).sum / counted.length
      val ratios = counted.map(t => t.accessed.toDouble / t.optimalSize)

      layer("fetch", sums(0))
      report("fetch.rows", perQuery(_.fetchRows.toDouble), "count")
      layer("build", sums(1))
      report("build.edges", perQuery(_.buildEdges.toDouble), "count")
      layer("peel", sums(2))
      report("peel.rounds", perQuery(_.rounds.toDouble), "count")
      report("peel.work", perQuery(_.work.toDouble), "count")
      report("peel.keynodes", perQuery(_.keynodes.toDouble), "count")
      layer("enumerate", sums(3))
      report("enumerate.keys", perQuery(_.enumerateKeys.toDouble), "count")
      layer("materialise", sums(4))
      report("materialise.members", perQuery(_.members.toDouble), "count")
      val searchNs = sums(5) - sums(0) - sums(1) - sums(2) - sums(3) - sums(4)
      report("search.self_ms", millis(searchNs.toDouble / n), "ms")
      report("search.share", searchNs / total, "ratio")
      report("search.accessed", perQuery(_.accessed.toDouble), "count")
      report("search.optimality_ratio", ratios.sum / ratios.length, "ratio")
      report("search.optimality_ratio_max", ratios.max, "ratio")
      report("search.over_2delta", ratios.count(_ > 2 * Delta).toDouble, "count")
      report("search.work_ratio", perQuery(t => t.work.toDouble / t.optimalSize), "ratio")
      report("gc.ms", sums(6).toDouble / n, "ms")
      report("gc.share", sums(6) * 1e6 / total, "ratio")
      for (k <- Seq("setup.spark_s", "setup.generate_s", "setup.store_s", "setup.local_s"))
        report(k, setup.getProperty(k).toDouble, "s")
      report("trace.query_ms", millis(total / n), "ms")
      report("trace.overhead_ratio", total / untracedNs, "ratio")
      println(s"traced queries $n; the layers' self times sum to the traced query time " +
        "(search is the remainder); gc overlaps them")
    }

    for ((name, (v, unit)) <- metrics) println(f"metric $name%-28s $v%.6f $unit")
    val correct = failed == 0 && metrics.values.forall(_._1.isFinite)
    val metricsJson = metrics.map { case (name, (v, unit)) =>
      s""""$name": {"value": ${if (v.isFinite) v.toString else "null"}, "unit": "$unit"}"""
    }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$metricsJson}}""")
  }
}
