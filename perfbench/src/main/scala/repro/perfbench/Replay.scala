package repro.perfbench

import repro.baseline.EdgeStore
import repro.core.{Community, CommunityIndex, CountIC, CvsResult, LocalSearchP, SearchStats}
import repro.graph.WGraph

import scala.collection.mutable

/** Layer self times (ns) and exact work counters of one traced query. */
final class Trace {
  var fetchNs = 0L
  var buildNs = 0L
  var peelNs = 0L
  var enumerateNs = 0L
  var materialiseNs = 0L
  var totalNs = 0L

  /** Edges read from the edge store, and the most held at once. */
  var fetchRows = 0L
  var resident = 0L
  /** Edges of every prefix graph built. */
  var buildEdges = 0L
  /** Peel calls (h of Lemma 3.7) and Σ size(G≥τ_i) over them. */
  var rounds = 0L
  var work = 0L
  /** Keynodes found over all peels. */
  var keynodes = 0L
  /** Keynodes processed by the enumerator. */
  var enumerateKeys = 0L
  /** Member ids materialised. */
  var members = 0L
  /** size(G≥τ_h) of the last prefix, and size(G≥τ*) of the optimal one. */
  var accessed = 0L
  var optimalSize = 0L
}

final case class Replayed(communities: Seq[Community], stats: SearchStats, trace: Trace)

/** Replays a query's rounds through the public call of each layer, with the
  * entry points' growth rule (δ = 2), timing every call. The benchmark checks
  * each replay's communities and [[SearchStats]] against the entry point.
  */
object Replay {

  private val Delta = 2.0

  private def grow(g: WGraph, p: Int): Int =
    math.min(g.n, math.max(p + 1, g.growTo(math.ceil(Delta * g.prefixSize(p).toDouble).toLong)))

  def run(q: Query, t: Target): Replayed = q.kind match {
    case Kind.TopK => topK(q, t.graph, nonContainment = false)
    case Kind.NonContainment => topK(q, t.graph, nonContainment = true)
    case Kind.Progressive => progressive(q, t.graph)
    case Kind.SemiExternal => semiExternal(q, t.graph, t.edges)
  }

  /** `p*` = rank of the k-th answer key + 1, or the whole graph when the
    * graph has fewer than k communities.
    */
  private def optimalPrefix(answerKeys: Int, lastKeyRank: Int, k: Int, n: Int): Int =
    if (answerKeys >= k) lastKeyRank + 1 else n

  /** Peel one prefix and account for it. */
  private def peel(tr: Trace, g: WGraph, p: Int, gamma: Int, size: Long,
                   stopBeforeRank: Int = 0, trackNc: Boolean = false): CvsResult = {
    val t0 = System.nanoTime()
    val res = CountIC.run(g, p, gamma, stopBeforeRank, trackNc)
    tr.peelNs += System.nanoTime() - t0
    tr.rounds += 1
    tr.work += size
    tr.keynodes += res.count
    res
  }

  /** EnumIC on the last k keys of the final peel, then materialise. Returns
    * the answer and the rank of its lowest-influence key.
    */
  private def enumerate(tr: Trace, g: WGraph, res: CvsResult, p: Int, k: Int): (Seq[Community], Int) = {
    val idx = new CommunityIndex(g)
    val from = math.max(0, res.keys.length - k)
    var t0 = System.nanoTime()
    idx.process(res, p, from)
    tr.enumerateNs += System.nanoTime() - t0
    tr.enumerateKeys += res.keys.length - from
    t0 = System.nanoTime()
    val out = (res.keys.length - 1 to from by -1).map(i => idx.community(res.keys(i)))
    tr.materialiseNs += System.nanoTime() - t0
    (out, if (out.isEmpty) -1 else res.keys(from))
  }

  private def finish(tr: Trace, start: Long, out: Seq[Community], p: Int, accessed: Long,
                     optimal: Long): Replayed = {
    tr.totalNs = System.nanoTime() - start
    tr.members = out.iterator.map(_.members.length.toLong).sum
    tr.accessed = accessed
    tr.optimalSize = optimal
    Replayed(out, SearchStats(tr.rounds.toInt, p, accessed, tr.work), tr)
  }

  /** `LocalSearch.topK` and `LocalSearch.topKNonContainment`. */
  private def topK(q: Query, g: WGraph, nonContainment: Boolean): Replayed = {
    val tr = new Trace
    val start = System.nanoTime()
    var p = math.min(g.n, q.k + q.gamma)
    var res = peel(tr, g, p, q.gamma, g.prefixSize(p), trackNc = nonContainment)
    while ((if (nonContainment) res.ncCount else res.count) < q.k && p < g.n) {
      p = grow(g, p)
      res = peel(tr, g, p, q.gamma, g.prefixSize(p), trackNc = nonContainment)
    }
    val (out, lastKey) =
      if (!nonContainment) enumerate(tr, g, res, p, q.k)
      else {
        // An NC community is its keynode's group, so picking the NC keys is
        // the whole enumeration.
        var t0 = System.nanoTime()
        val ncIdx = res.keys.indices.filter(res.nc(_)).takeRight(q.k).reverse
        tr.enumerateNs += System.nanoTime() - t0
        tr.enumerateKeys += ncIdx.length
        t0 = System.nanoTime()
        val cs = ncIdx.map { i =>
          val members = res.group(i).map(g.origId)
          java.util.Arrays.sort(members)
          Community(g.origId(res.keys(i)), g.weights(res.keys(i)), members)
        }
        tr.materialiseNs += System.nanoTime() - t0
        (cs, if (ncIdx.isEmpty) -1 else res.keys(ncIdx.last))
      }
    finish(tr, start, out, p, g.prefixSize(p),
      g.prefixSize(optimalPrefix(out.length, lastKey, q.k, g.n)))
  }

  /** `LocalSearchP.iterator` consumed to k: a round runs only when every
    * community reported so far has been materialised.
    */
  private def progressive(q: Query, g: WGraph): Replayed = {
    val tr = new Trace
    val start = System.nanoTime()
    val index = new CommunityIndex(g)
    val pending = mutable.Queue.empty[Int]
    val out = Vector.newBuilder[Community]
    var p = math.min(g.n, 1 + q.gamma)
    var prevP = 0
    var lastP = 0
    var exhausted = g.n == 0
    var reported = 0
    var lastKey = -1
    while (reported < q.k && (pending.nonEmpty || !exhausted)) {
      while (pending.isEmpty && !exhausted) {
        val res = peel(tr, g, p, q.gamma, g.prefixSize(p), stopBeforeRank = prevP)
        val t0 = System.nanoTime()
        index.process(res, p, 0)
        tr.enumerateNs += System.nanoTime() - t0
        tr.enumerateKeys += res.count
        var i = res.keys.length - 1
        while (i >= 0) { pending.enqueue(res.keys(i)); i -= 1 }
        lastP = p
        if (p == g.n) exhausted = true
        else { prevP = p; p = grow(g, p) }
      }
      if (pending.nonEmpty) {
        lastKey = pending.dequeue()
        val t0 = System.nanoTime()
        out += new LocalSearchP.Reported(index, lastKey, false, false).materialise()
        tr.materialiseNs += System.nanoTime() - t0
        reported += 1
      }
    }
    finish(tr, start, out.result(), lastP, g.prefixSize(lastP),
      g.prefixSize(optimalPrefix(reported, lastKey, q.k, g.n)))
  }

  /** `LocalSearchSE.topK`: each round reads the prefix's new edges from the
    * store (fetch) and rebuilds the prefix graph from all edges read (build).
    * `g` supplies only what the semi-external model keeps in memory: weights,
    * ids and per-rank edge counts.
    */
  private def semiExternal(q: Query, g: WGraph, store: EdgeStore): Replayed = {
    val tr = new Trace
    val start = System.nanoTime()
    val readBefore = store.edgesRead
    val buffered = mutable.ArrayBuffer.empty[(Int, Int)]
    var p = math.min(g.n, q.k + q.gamma)
    var loaded = 0
    var prefix: WGraph = null
    var res: CvsResult = null
    var done = false
    while (!done) {
      var t0 = System.nanoTime()
      val need = g.prefixEdges(p).toInt
      if (need > loaded) {
        buffered ++= store.readRange(loaded, need)
        loaded = need
      }
      tr.fetchNs += System.nanoTime() - t0
      t0 = System.nanoTime()
      prefix = WGraph.fromRanked(g.weights.take(p), g.origId.take(p), buffered)
      tr.buildNs += System.nanoTime() - t0
      tr.buildEdges += prefix.m
      res = peel(tr, prefix, p, q.gamma, g.prefixSize(p))
      if (res.count >= q.k || p == g.n) done = true
      else p = grow(g, p)
    }
    val (out, lastKey) = enumerate(tr, prefix, res, p, q.k)
    val replayed = finish(tr, start, out, p, g.prefixSize(p),
      g.prefixSize(optimalPrefix(out.length, lastKey, q.k, g.n)))
    tr.fetchRows = store.edgesRead - readBefore
    tr.resident = loaded
    replayed
  }
}
