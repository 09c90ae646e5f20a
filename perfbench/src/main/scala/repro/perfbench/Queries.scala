package repro.perfbench

import repro.baseline.{EdgeStore, Forward, LocalSearchSE}
import repro.core.{Community, LocalSearch, LocalSearchP, SearchStats}
import repro.graph.WGraph

/** What a query runs on: the in-memory graph, and the edge store of the
  * semi-external queries (null when the workload has none).
  */
final class Target(val graph: WGraph, val edges: EdgeStore)

/** Edges a semi-external query read from the store, and the most it held. */
final case class EdgeIo(read: Long, resident: Long)

/** A query's answer with what its entry point reports about it. `firstNs` is
  * the time from the call to the first materialised community, known only for
  * progressive queries (-1 otherwise).
  */
final case class Answer(communities: Seq[Community], stats: Option[SearchStats],
                        io: Option[EdgeIo], firstNs: Long)

/** What the answer check compares per community: key id, influence, member
  * count and a hash of the (sorted) member ids.
  */
final case class Digest(keyId: Long, influence: Double, size: Int, memberHash: Long)

object Digest {
  def of(c: Community): Digest = {
    var h = 0x9E3779B97F4A7C15L
    var i = 0
    while (i < c.members.length) {
      h = (h ^ c.members(i)) * 0xBF58476D1CE4E5B9L
      h ^= h >>> 31
      i += 1
    }
    Digest(c.keyId, c.influence, c.members.length, h)
  }

  def all(cs: Seq[Community]): IndexedSeq[Digest] = cs.iterator.map(of).toIndexedSeq
}

/** Runs queries through the program's public entry points, untraced. */
object Queries {

  def run(q: Query, t: Target): Answer = q.kind match {
    case Kind.TopK =>
      val (cs, st) = LocalSearch.topK(t.graph, q.k, q.gamma)
      Answer(cs, Some(st), None, -1L)
    case Kind.NonContainment =>
      val (cs, st) = LocalSearch.topKNonContainment(t.graph, q.k, q.gamma)
      Answer(cs, Some(st), None, -1L)
    case Kind.SemiExternal =>
      // The store is reused, so a query's I/O is the change in its counter.
      val before = t.edges.edgesRead
      val r = LocalSearchSE.topK(t.graph, t.edges, q.k, q.gamma)
      Answer(r.communities, None, Some(EdgeIo(r.edgesRead - before, r.peakResidentEdges)), -1L)
    case Kind.Progressive =>
      val start = System.nanoTime()
      val it = LocalSearchP.iterator(t.graph, q.gamma)
      val out = Vector.newBuilder[Community]
      var n = 0
      var first = -1L
      while (n < q.k && it.hasNext) {
        out += it.next().materialise()
        if (n == 0) first = System.nanoTime() - start
        n += 1
      }
      Answer(out.result(), None, None, first)
  }

  /** Expected digests of every query of the mix, from another entry point:
    * the global Forward baseline (whole-graph peel and BFS, with no prefix
    * growth or CommunityIndex) for in-memory queries, run once per γ at the
    * largest k and compared as a prefix; in-memory LocalSearch for
    * semi-external queries, which checks the prefixes they read and rebuild.
    */
  def references(mix: Seq[Query], g: WGraph): Map[Query, IndexedSeq[Digest]] =
    mix.groupBy(q => (q.kind match {
      case Kind.Progressive => Kind.TopK
      case other => other
    }, q.gamma)).flatMap { case ((kind, gamma), qs) =>
      val kMax = qs.map(_.k).max
      kind match {
        case Kind.TopK =>
          val all = Digest.all(Forward.topK(g, kMax, gamma))
          qs.map(q => q -> all.take(q.k))
        case Kind.NonContainment =>
          val all = Digest.all(Forward.topKNonContainment(g, kMax, gamma))
          qs.map(q => q -> all.take(q.k))
        case _ =>
          qs.map(q => q -> Digest.all(LocalSearch.topK(g, q.k, gamma)._1))
      }
    }
}
