package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.Scoring.{Edge, PairMatch}

/** The Eq. 7–10 scoring dataflow on hand-made annotations, including the
  * Fig. 3 / Ex. 18 inter-method selection.
  */
class ScoringSpec extends AnyFunSuite {

  private def cs(rows: (String, Int, String, Double, Double)*): Seq[ColAnn] =
    rows.map { case (t, c, a, conf, gs) => ColAnn(t, c, a, conf, gs) }

  private def rs(rows: (String, Int, Int, String, Double)*): Seq[PairAnn] =
    rows.map { case (t, a, b, p, conf) => PairAnn(t, a, b, p, conf) }

  /** The lake side as the inverted index the serving view holds. */
  private def inverted(rows: Seq[ColAnn]): Map[String, Seq[ColAnn]] = rows.groupBy(_.annotation)
  private def invertedRs(rows: Seq[PairAnn]): Map[String, Seq[PairAnn]] = rows.groupBy(_.annotation)

  // ------------------------------------------------------------------ Eq. 7

  test("Eq. 7: colMatch is the max product over shared annotations") {
    val q = cs(("Q", 0, "city", 0.6, 0.22), ("Q", 0, "place", 1.0, 0.14))
    val t = cs(("T", 3, "city", 0.132, 0.22), ("T", 3, "place", 0.14, 0.14))
    val m = Scoring.colMatch(q, inverted(t)).values.head
    // max(0.6*0.132, 1.0*0.14) = 0.14 via place
    assert(math.abs(m.score - 0.14) < 1e-9)
    assert(math.abs(m.gs - 0.14) < 1e-9)
  }

  test("Eq. 7: no shared annotation, no match row") {
    val q = cs(("Q", 0, "city", 0.6, 0.22))
    val t = cs(("T", 0, "person", 1.0, 0.2))
    assert(Scoring.colMatch(q, inverted(t)).size === 0)
  }

  test("colMatch carries the gs of the argmax annotation") {
    val q = cs(("Q", 0, "city", 1.0, 0.22), ("Q", 0, "place", 0.1, 0.14))
    val t = cs(("T", 0, "city", 0.9, 0.22), ("T", 0, "place", 0.9, 0.14))
    val m = Scoring.colMatch(q, inverted(t)).values.head
    assert(math.abs(m.score - 0.9) < 1e-9) // city wins
    assert(math.abs(m.gs - 0.22) < 1e-9)
  }

  test("colMatch without gs reports gs_sel = 1 (synthesized method)") {
    val q = cs(("Q", 0, "a", 0.5, 1.0))
    val t = cs(("T", 0, "a", 0.5, 1.0))
    val m = Scoring.colMatch(q, inverted(t)).values.head
    assert(m.gs === 1.0)
  }

  test("colMatch scores all query-column x lake-column combinations") {
    val q = cs(("Q", 0, "city", 1.0, 0.22), ("Q", 1, "person", 1.0, 0.2))
    val t = cs(("T", 0, "person", 0.2, 0.2), ("T", 1, "city", 0.1, 0.22),
               ("U", 0, "city", 0.2, 0.22))
    val rows = Scoring.colMatch(q, inverted(t)).keySet
      .map(k => (k.qCol, k.tTable, k.tCol))
    assert(rows === Set((0, "T", 1), (0, "U", 0), (1, "T", 0)))
  }

  // ------------------------------------------------------------------ Eq. 8

  test("Eq. 8: relMatch is the max product over shared predicates") {
    val q = rs(("Q", 0, 1, "locatedin", 1.0), ("Q", 0, 1, "heldin", 0.9))
    val t = rs(("T", 2, 3, "locatedin", 0.8), ("T", 2, 3, "heldin", 0.85))
    val m = Scoring.relMatch(q, invertedRs(t)).values.head
    assert(math.abs(m - 0.8) < 1e-9) // 1.0*0.8 > 0.9*0.85
  }

  test("relMatch respects pair orientation within a method") {
    val q = rs(("Q", 0, 1, "locatedin", 1.0))
    val t = rs(("T", 3, 2, "locatedin", 0.8))
    val e = Scoring.relMatch(q, invertedRs(t)).keys.head
    assert(e.tA === 3 && e.tB === 2)
  }

  // ------------------------------------------------------------------ Eq. 9

  test("Eq. 9: pairMatch multiplies colMatch, relMatch, colMatch") {
    val q = cs(("Q", 0, "park", 1.0, 0.48), ("Q", 1, "city", 1.0, 0.22))
    val t = cs(("T", 0, "park", 0.5, 0.48), ("T", 1, "city", 0.4, 0.22))
    val qr = rs(("Q", 0, 1, "locatedin", 1.0))
    val tr = rs(("T", 0, 1, "locatedin", 0.9))
    val cm = Scoring.colMatch(q, inverted(t))
    val rm = Scoring.relMatch(qr, invertedRs(tr))
    val pm = Scoring.pairMatch(cm, rm).values.head
    assert(math.abs(pm.pm - 0.5 * 0.9 * 0.4) < 1e-9)
    assert(math.abs(pm.pmDepen - 0.5 * 0.9 * 0.4 / (0.48 * 0.22)) < 1e-9)
  }

  test("pairMatch requires all three components (missing colMatch drops the edge)") {
    val q = cs(("Q", 0, "park", 1.0, 0.48)) // no CS for column 1
    val t = cs(("T", 0, "park", 0.5, 0.48), ("T", 1, "city", 0.4, 0.22))
    val qr = rs(("Q", 0, 1, "locatedin", 1.0))
    val tr = rs(("T", 0, 1, "locatedin", 0.9))
    val pm = Scoring.pairMatch(Scoring.colMatch(q, inverted(t)),
                               Scoring.relMatch(qr, invertedRs(tr)))
    assert(pm.size === 0)
  }

  // ----------------------------------------------------------------- Eq. 10

  private val edge = Edge("Q", 0, 1, "T", 0, 1)

  private def pmMap(pm: Double, depen: Double): Map[Edge, PairMatch] =
    Map(edge -> PairMatch(pm, depen))

  test("Ex. 18 / Fig. 3: the de-penalized KB branch wins and keeps its penalized value") {
    // KB branch: pm = 0.48 * 0.893 (penalized); de-penalized comparison value
    // exceeds the synth branch 0.166 * 0.552.
    val kb = pmMap(0.48 * 0.893, 0.48 * 0.893 / (0.48 * 0.22)) // any depen >= synth
    val sy = pmMap(0.166 * 0.552, 0.166 * 0.552)
    val out = Scoring.combine(Some(kb), Some(sy))(edge)
    assert(math.abs(out - 0.48 * 0.893) < 1e-9)
  }

  test("Eq. 10: the synth branch wins when de-penalized KB is smaller") {
    val kb = pmMap(0.01, 0.05)
    val sy = pmMap(0.3, 0.3)
    val out = Scoring.combine(Some(kb), Some(sy))(edge)
    assert(math.abs(out - 0.3) < 1e-9)
  }

  test("Eq. 10: a KB-only edge survives when synth has no row") {
    val kb = pmMap(0.2, 0.9)
    val sy = pmMap(0.3, 0.3).filter(_._2.pm < 0) // empty
    val out = Scoring.combine(Some(kb), Some(sy))(edge)
    assert(math.abs(out - 0.2) < 1e-9)
  }

  test("Eq. 10: a synth-only edge survives when KB has no row") {
    val kb = pmMap(0.2, 0.9).filter(_._2.pm < 0) // empty
    val sy = pmMap(0.3, 0.3)
    val out = Scoring.combine(Some(kb), Some(sy))(edge)
    assert(math.abs(out - 0.3) < 1e-9)
  }

  test("combine with a single method is the identity on pm") {
    val kb = pmMap(0.7, 0.9)
    assert(Scoring.combine(Some(kb), None)(edge) === 0.7)
    assert(Scoring.combine(None, Some(kb))(edge) === 0.7)
  }

  test("combine with no method is rejected") {
    assertThrows[IllegalArgumentException] { Scoring.combine(None, None) }
  }

  // ------------------------------------------------------- orientation closure

  test("orientMax exposes a directed match to the flipped edge") {
    val pm = Map(Edge("Q", 0, 1, "T", 2, 3) -> 0.5)
    val out = Scoring.orientMax(pm).map { case (e, v) => (e.qA, e.qB, e.tA, e.tB) -> v }
    assert(out((0, 1, 2, 3)) === 0.5)
    assert(out((1, 0, 3, 2)) === 0.5)
    assert(out.size === 2)
  }

  test("orientMax takes the max when both orientations scored") {
    val pm = Map(
      Edge("Q", 0, 1, "T", 2, 3) -> 0.5,
      Edge("Q", 1, 0, "T", 3, 2) -> 0.7,
    )
    val out = Scoring.orientMax(pm).map { case (e, v) => (e.qA, e.qB) -> v }
    assert(out((0, 1)) === 0.7)
    assert(out((1, 0)) === 0.7)
  }

  test("orientMax keeps the max whichever orientation is scored first") {
    // The two orientations of one edge can round differently ((a·r)·b vs
    // (b·r)·a); the max must win regardless of the order they arrive in.
    val pm = Map(
      Edge("Q", 0, 1, "T", 2, 3) -> 0.7,
      Edge("Q", 1, 0, "T", 3, 2) -> 0.5,
    )
    val out = Scoring.orientMax(pm).map { case (e, v) => (e.qA, e.qB) -> v }
    assert(out((0, 1)) === 0.7)
    assert(out((1, 0)) === 0.7)
  }
}
