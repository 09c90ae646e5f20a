package repro.perfbench

import scala.util.Random

/** The public entry point a query goes through. */
sealed abstract class Kind(val label: String)

object Kind {
  /** `LocalSearch.topK` on the in-memory graph. */
  case object TopK extends Kind("topk")
  /** `LocalSearchP.iterator`, consumed until k communities are materialised. */
  case object Progressive extends Kind("progressive")
  /** `LocalSearch.topKNonContainment` on the in-memory graph. */
  case object NonContainment extends Kind("nc")
  /** `LocalSearchSE.topK`, reading edges from an `EdgeStore`. */
  case object SemiExternal extends Kind("se")
}

/** One query of a workload mix; δ is the entry points' default of 2. */
final case class Query(kind: Kind, k: Int, gamma: Int) {
  override def toString: String = s"${kind.label}(k=$k,gamma=$gamma)"
}

/** An RMAT stand-in graph, with the seed `repro.exp.Datasets` uses for it.
  * The workload seed does not change the graph: RMAT graphs of one size
  * differ enough in query cost that the spread across seeds would hide any
  * regression (see README.md).
  */
final case class GraphSpec(name: String, scale: Int, edgeFactor: Double, rmatSeed: Long)

/** A workload: one graph and a fixed mix of distinct queries. The client
  * runs the mix in complete cycles, each in a fresh seeded order, so every
  * distinct query carries the same weight in every percentile.
  */
final case class Workload(name: String, graph: GraphSpec, mix: IndexedSeq[Query]) {

  /** Queries whose time to the first community is sampled: the progressive
    * ones when the mix has any, otherwise every query (an entry point that
    * returns the whole answer at once reports its first community last).
    */
  def firstReportSampled(q: Query): Boolean =
    q.kind == Kind.Progressive || !mix.exists(_.kind == Kind.Progressive)

  def cycle(rnd: Random): IndexedSeq[Query] = rnd.shuffle(mix)
}

object Workloads {

  val twitterS: GraphSpec = GraphSpec("twitter-s", scale = 14, edgeFactor = 26.0, rmatSeed = 43L)
  val arabicS: GraphSpec = GraphSpec("arabic-s", scale = 15, edgeFactor = 13.0, rmatSeed = 41L)

  private def grid(kind: Kind, ks: Seq[Int], gammas: Seq[Int]): IndexedSeq[Query] =
    for (k <- ks.toIndexedSeq; g <- gammas) yield Query(kind, k, g)

  // Mix sizes are odd so that the median falls inside one query's own
  // latency distribution instead of on the gap between two of them.
  val all: Seq[Workload] = Seq(
    // The paper's headline queries. k = 1000 makes materialise dominate,
    // NC k = 10 exceeds the stand-ins' NC communities and forces a
    // whole-graph peel, and γ = 50 needs several growth rounds.
    Workload("core-inmem", twitterS,
      grid(Kind.TopK, Seq(10, 100, 1000), Seq(10, 20, 50)) ++
        grid(Kind.Progressive, Seq(10, 100), Seq(10, 20, 50)) ++
        grid(Kind.NonContainment, Seq(1, 10), Seq(10))),
    // The same peel as core-inmem, but every round reads its new edges
    // through EdgeStore.readRange as boxed tuples and rebuilds the whole
    // prefix WGraph, so fetch and build carry most of the time. k = 1000 is
    // left out because its materialise cost would hide them.
    Workload("core-semi-external", arabicS,
      grid(Kind.SemiExternal, Seq(10, 50, 100), Seq(10, 20, 50))),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
