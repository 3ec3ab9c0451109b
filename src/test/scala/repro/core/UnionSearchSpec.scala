package repro.core

import repro.SparkSpec
import repro.core.Scoring.ColKey
import repro.core.UnionSearch.{EdgeScore, Ranked}

/** Tree assembly and top-k ranking (Def. 10, Eq. 11). */
class UnionSearchSpec extends SparkSpec {
  import spark.implicits._

  private val tree = QueryTree("Q", intentCol = 0, edges = Seq((0, 1), (0, 2), (1, 3)))

  test("assemble sums pairMatch over the matched subtree") {
    val rows = Seq(
      EdgeScore("Q", 0, 1, "T", 0, 1, 0.5),
      EdgeScore("Q", 0, 2, "T", 0, 2, 0.3),
      EdgeScore("Q", 1, 3, "T", 1, 3, 0.2),
    )
    assert(math.abs(UnionSearch.assemble(tree, rows) - 1.0) < 1e-9)
  }

  test("assemble returns 0 when the intent column never matches") {
    val rows = Seq(EdgeScore("Q", 1, 3, "T", 1, 3, 0.9))
    assert(UnionSearch.assemble(tree, rows) === 0.0)
  }

  test("a subtree under an unmatched child is pruned") {
    // (0,1) has no match, so (1,3) cannot contribute even though it scores.
    val rows = Seq(
      EdgeScore("Q", 0, 2, "T", 0, 2, 0.3),
      EdgeScore("Q", 1, 3, "T", 1, 3, 0.9),
    )
    assert(math.abs(UnionSearch.assemble(tree, rows) - 0.3) < 1e-9)
  }

  test("greedy mapping picks the best-scoring lake edge per tree edge") {
    val rows = Seq(
      EdgeScore("Q", 0, 1, "T", 0, 1, 0.2),
      EdgeScore("Q", 0, 1, "T", 0, 5, 0.8), // better child for (0,1)
    )
    assert(math.abs(UnionSearch.assemble(tree, rows) - 0.8) < 1e-9)
  }

  test("a lake column is never mapped twice") {
    // Both tree edges would like T column 1; the second must go unmatched.
    val rows = Seq(
      EdgeScore("Q", 0, 1, "T", 0, 1, 0.8),
      EdgeScore("Q", 0, 2, "T", 0, 1, 0.7),
    )
    assert(math.abs(UnionSearch.assemble(tree, rows) - 0.8) < 1e-9)
  }

  test("the anchor column is chosen to maximize the total score") {
    val rows = Seq(
      EdgeScore("Q", 0, 1, "T", 0, 1, 0.2), // anchor 0: total 0.2
      EdgeScore("Q", 0, 1, "T", 7, 8, 0.4), // anchor 7: 0.4 + 0.3
      EdgeScore("Q", 0, 2, "T", 7, 9, 0.3),
    )
    assert(math.abs(UnionSearch.assemble(tree, rows) - 0.7) < 1e-9)
  }

  test("a transitive edge chains through the mapped parent only") {
    val rows = Seq(
      EdgeScore("Q", 0, 1, "T", 0, 1, 0.5),
      EdgeScore("Q", 1, 3, "T", 1, 4, 0.3),  // from mapped column 1: counts
      EdgeScore("Q", 1, 3, "T", 9, 10, 0.9), // from unmapped column 9: ignored
    )
    assert(math.abs(UnionSearch.assemble(tree, rows) - 0.8) < 1e-9)
  }

  test("searchAll ranks tables by score with deterministic tie-break") {
    val scores = Seq(
      ("Q", 0, 1, "B", 0, 1, 0.5),
      ("Q", 0, 1, "A", 0, 1, 0.5),
      ("Q", 0, 1, "C", 0, 1, 0.9),
    ).toDF("q_table", "q_a", "q_b", "t_table", "t_a", "t_b", "pm")
    val out = UnionSearch.searchAll(Seq(tree), scores, k = 3)("Q")
    assert(out.map(_.tableId) === Seq("C", "A", "B"))
  }

  test("searchAll truncates to k and drops zero scores") {
    val scores = Seq(
      ("Q", 0, 1, "A", 0, 1, 0.9),
      ("Q", 0, 1, "B", 0, 1, 0.5),
      ("Q", 1, 3, "C", 1, 3, 0.5), // C never matches the intent -> score 0
    ).toDF("q_table", "q_a", "q_b", "t_table", "t_a", "t_b", "pm")
    val out = UnionSearch.searchAll(Seq(tree), scores, k = 1)("Q")
    assert(out === Seq(Ranked("A", 0.9)))
  }

  test("searchAll handles a query with no candidate edges") {
    val scores = Seq.empty[(String, Int, Int, String, Int, Int, Double)]
      .toDF("q_table", "q_a", "q_b", "t_table", "t_a", "t_b", "pm")
    val out = UnionSearch.searchAll(Seq(tree), scores, k = 5)
    assert(out("Q") === Seq.empty)
  }

  /** Column-only scores from (q_table, q_col, t_table, t_col, col_match) rows. */
  private def colScores(rows: (String, Int, String, Int, Double)*): Map[ColKey, Double] =
    rows.map { case (q, qc, t, tc, m) => ColKey(q, qc, t, tc) -> m }.toMap

  test("searchColumnOnly sums a greedy bipartite column assignment") {
    val scores = colScores(
      ("Q", 0, "T", 0, 0.9),
      ("Q", 1, "T", 0, 0.8), // column T.0 already taken by Q.0
      ("Q", 1, "T", 1, 0.5),
    )
    val out = UnionSearch.searchColumnOnly(Seq("Q"), scores, k = 5)("Q")
    assert(math.abs(out.head.score - 1.4) < 1e-9)
  }

  test("searchColumnOnly ranks multiple tables") {
    val scores = colScores(
      ("Q", 0, "T", 0, 0.4),
      ("Q", 0, "U", 0, 0.9),
    )
    val out = UnionSearch.searchColumnOnly(Seq("Q"), scores, k = 2)("Q")
    assert(out.map(_.tableId) === Seq("U", "T"))
  }
}
