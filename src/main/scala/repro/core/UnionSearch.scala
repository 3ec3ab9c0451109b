package repro.core

import org.apache.spark.sql.DataFrame

/** Top-k union search (Def. 10, Eq. 11).
  *
  * Edge-level pairMatch scores come from [[Scoring.edgeScores]], which looks
  * them up in the driver-side serving view of the lake index; this module
  * performs the final per-(query, candidate) tree assembly: anchor the intent column on a candidate column,
  * then greedily map each query-tree edge (in BFS order) onto the best unused
  * lake edge leaving the already-mapped parent, summing pairMatch. The anchor
  * with the maximal sum gives S(Q,T); tables rank by S.
  */
object UnionSearch {

  /** One collected edge score row. */
  final case class EdgeScore(qTable: String, qA: Int, qB: Int,
                             tTable: String, tA: Int, tB: Int, pm: Double)

  final case class Ranked(tableId: String, score: Double)

  /** Greedy subtree assembly for one query tree against one candidate table.
    * Returns S(Q,T) — 0.0 if the intent column never matches.
    */
  def assemble(tree: QueryTree, rows: Seq[EdgeScore]): Double = {
    // (q_a, q_b, t_a) -> [(t_b, pm)]
    val byKey: Map[(Int, Int, Int), Seq[EdgeScore]] =
      rows.groupBy(r => (r.qA, r.qB, r.tA))
    val anchors: Seq[Int] =
      rows.filter(_.qA == tree.intentCol).map(_.tA).distinct.sorted

    var best = 0.0
    for (anchor <- anchors) {
      val mapping = scala.collection.mutable.Map(tree.intentCol -> anchor)
      val used = scala.collection.mutable.Set(anchor)
      var score = 0.0
      for ((p, c) <- tree.edges) {
        mapping.get(p).foreach { tp =>
          val cands = byKey.getOrElse((p, c, tp), Seq.empty)
            .filterNot(r => used.contains(r.tB))
          if (cands.nonEmpty) {
            val pick = cands.maxBy(r => (r.pm, -r.tB))
            mapping(c) = pick.tB
            used += pick.tB
            score += pick.pm
          }
        }
      }
      if (score > best) best = score
    }
    best
  }

  /** Ranks all candidate tables for every query, given the batch edge-score
    * DataFrame from [[Scoring.edgeScores]]. Only tables with S > 0 appear —
    * SANTOS requires a relationship match (a method may thus return fewer
    * than k results; the metrics treat the missing slots as misses, Sec. 8.1).
    */
  def searchAll(trees: Seq[QueryTree], edgeScores: DataFrame, k: Int): Map[String, Seq[Ranked]] = {
    val collected: Seq[EdgeScore] = ServingView.rowsOf(edgeScores).map { r =>
      EdgeScore(
        r.getAs[String]("q_table"), r.getAs[Int]("q_a"), r.getAs[Int]("q_b"),
        r.getAs[String]("t_table"), r.getAs[Int]("t_a"), r.getAs[Int]("t_b"),
        r.getAs[Double]("pm"))
    }
    val byQuery = collected.groupBy(_.qTable)
    trees.map { tree =>
      val rows = byQuery.getOrElse(tree.tableId, Seq.empty)
      val ranked = rows.groupBy(_.tTable).toSeq
        .map { case (t, rs) => Ranked(t, assemble(tree, rs)) }
        .filter(_.score > 0.0)
        .sortBy(r => (-r.score, r.tableId))
        .take(k)
      tree.tableId -> ranked
    }.toMap
  }

  /** SANTOS_Col variant (Sec. 8.2): per candidate table, greedily assign each
    * query column to a distinct lake column by descending colMatch and sum.
    * No intent anchoring, no relationships.
    */
  def searchColumnOnly(queryIds: Seq[String], colScores: DataFrame, k: Int): Map[String, Seq[Ranked]] = {
    val collected = ServingView.rowsOf(colScores).map { r =>
      (r.getAs[String]("q_table"), r.getAs[Int]("q_col"),
       r.getAs[String]("t_table"), r.getAs[Int]("t_col"), r.getAs[Double]("col_match"))
    }
    val byQuery = collected.groupBy(_._1)
    queryIds.map { q =>
      val rows = byQuery.getOrElse(q, Seq.empty)
      val ranked = rows.groupBy(_._3).toSeq.map { case (t, rs) =>
        val sorted = rs.sortBy(x => (-x._5, x._2, x._4))
        val usedQ = scala.collection.mutable.Set[Int]()
        val usedT = scala.collection.mutable.Set[Int]()
        var s = 0.0
        for ((_, qc, _, tc, m) <- sorted if !usedQ.contains(qc) && !usedT.contains(tc)) {
          usedQ += qc; usedT += tc; s += m
        }
        Ranked(t, s)
      }
        .filter(_.score > 0.0)
        .sortBy(r => (-r.score, r.tableId))
        .take(k)
      q -> ranked
    }.toMap
  }
}
