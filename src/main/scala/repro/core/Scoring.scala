package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, IntegerType, StringType}

/** The SANTOS unionability scoring dataflow (Sec. 6).
  *
  * Per semantic-graph method G (KB or Synth):
  *
  *   colMatch_G(Q_c, T_c)  = max_a CS(Q_c,a) · CS(T_c,a)             (Eq. 7)
  *   relMatch_G(qe, te)    = max_p RS(qe,p) · RS(te,p)               (Eq. 8)
  *   pairMatch_G(qe, te)   = colMatch·relMatch·colMatch              (Eq. 9)
  *
  * and across methods, the KB branch wins iff its *gs-de-penalized* score is
  * at least the Synth score (Eq. 10) — but the winning KB branch keeps its
  * penalized value, so granular type matches still outrank top-level ones.
  *
  * All matches are lookups in the inverted indexes of the pre-processing
  * phase, read through the driver-side [[LakeIndex.serving]] view; one query
  * runs no Spark job here.
  */
object Scoring {

  /** A (query column, lake column) pair. */
  final case class ColKey(qTable: String, qCol: Int, tTable: String, tCol: Int)

  /** A (query column pair, lake column pair) edge. */
  final case class Edge(qTable: String, qA: Int, qB: Int, tTable: String, tA: Int, tB: Int) {
    def flipped: Edge = Edge(qTable, qB, qA, tTable, tB, tA)
  }

  /** Eq. 7 value with the granularity score of the selected annotation. */
  final case class ColMatch(score: Double, gs: Double)

  /** Eq. 9 value `pm` with its Eq. 10 de-penalized companion. */
  final case class PairMatch(pm: Double, pmDepen: Double)

  /** Eq. 7: per (query column, lake column) sharing an annotation, the max
    * product CS(Q_c,a) · CS(T_c,a), with the lake gs of the argmax annotation
    * (needed for the Eq. 10 de-penalization; 1.0 for the synthesized method).
    * Ties on the product go to the larger gs.
    *
    * @param lake inverted index: annotation -> lake columns
    */
  def colMatch(query: Seq[ColAnn], lake: Map[String, Seq[ColAnn]]): Map[ColKey, ColMatch] = {
    val best = mutable.HashMap[ColKey, ColMatch]()
    for (q <- query; t <- lake.getOrElse(q.annotation, Nil)) {
      val m = ColMatch(q.conf * t.conf, t.gs)
      val key = ColKey(q.table, q.col, t.table, t.col)
      best.get(key) match {
        case Some(o) if o.score > m.score || (o.score == m.score && o.gs >= m.gs) =>
        case _ => best(key) = m
      }
    }
    best.toMap
  }

  /** Eq. 8 over ordered column pairs: the max product RS(qe,p) · RS(te,p)
    * over annotations p shared by the query and the lake pair.
    *
    * @param lake inverted index: annotation -> lake column pairs
    */
  def relMatch(query: Seq[PairAnn], lake: Map[String, Seq[PairAnn]]): Map[Edge, Double] = {
    val best = mutable.HashMap[Edge, Double]()
    for (q <- query; t <- lake.getOrElse(q.annotation, Nil)) {
      val key = Edge(q.table, q.a, q.b, t.table, t.a, t.b)
      val m = q.conf * t.conf
      if (best.get(key).forall(_ < m)) best(key) = m
    }
    best.toMap
  }

  /** Eq. 9: pairMatch for one method, with the Eq. 10 de-penalized companion.
    * An edge needs all three components.
    */
  def pairMatch(colM: Map[ColKey, ColMatch], relM: Map[Edge, Double]): Map[Edge, PairMatch] =
    relM.flatMap { case (e, rel) =>
      for {
        cm1 <- colM.get(ColKey(e.qTable, e.qA, e.tTable, e.tA))
        cm2 <- colM.get(ColKey(e.qTable, e.qB, e.tTable, e.tB))
      } yield {
        val pm = cm1.score * rel * cm2.score
        e -> PairMatch(pm, pm / (cm1.gs * cm2.gs))
      }
    }

  /** Eq. 10: inter-method selection. The KB branch is chosen iff
    * pm_KB/(gs1·gs2) >= pm_Synth; the *penalized* pm_KB is then kept.
    */
  def combine(pmKb: Option[Map[Edge, PairMatch]],
              pmSynth: Option[Map[Edge, PairMatch]]): Map[Edge, Double] =
    (pmKb, pmSynth) match {
      case (Some(kb), None) => kb.map { case (e, m) => e -> m.pm }
      case (None, Some(sy)) => sy.map { case (e, m) => e -> m.pm }
      case (Some(kb), Some(sy)) =>
        (kb.keySet ++ sy.keySet).iterator.map { e =>
          val kbDepen = kb.get(e).fold(-1.0)(_.pmDepen)
          val syPm = sy.get(e).fold(0.0)(_.pm)
          e -> (if (kbDepen >= syPm) kb(e).pm else syPm)
        }.toMap
      case (None, None) =>
        throw new IllegalArgumentException("at least one method required")
    }

  /** Orientation closure: a tree edge (parent→child) mapped onto a lake edge
    * (a→b) may be witnessed in either orientation of the directed RS, so the
    * final score of ((q_a,q_b),(t_a,t_b)) is the max over both consistent
    * flips (Sec. 6: the KB may return RS(T_c1,T_c2) for the lake table and
    * RS(Q_c2,Q_c1) for the query table).
    */
  def orientMax(pm: Map[Edge, Double]): Map[Edge, Double] =
    pm.toSeq.flatMap { case (e, v) => Seq(e -> v, e.flipped -> v) }
      .groupMapReduce(_._1)(_._2)(math.max)

  /** Full edge-score pipeline for a query annotation against a lake index:
    * per-method colMatch/relMatch/pairMatch, inter-method combination, and
    * orientation closure, as a local DataFrame
    * (q_table, q_a, q_b, t_table, t_a, t_b, pm).
    */
  def edgeScores(ann: QueryAnnotation, index: LakeIndex): DataFrame = {
    val view = index.serving
    val pmKb = for {
      qcs <- ann.kbCSRows; qrs <- ann.kbRSRows
      tcs <- view.kbCS; trs <- view.kbRS
    } yield pairMatch(colMatch(qcs, tcs), relMatch(qrs, trs))
    val pmSy = for {
      qcs <- ann.synCSRows; qrs <- ann.synRSRows
      s <- view.synth
    } yield pairMatch(colMatch(qcs, s.cs), relMatch(qrs, s.rs))
    val rows = orientMax(combine(pmKb, pmSy)).toSeq.map { case (e, pm) =>
      Row(e.qTable, e.qA, e.qB, e.tTable, e.tA, e.tB, pm)
    }
    ServingView.localFrame(sessionOf(ann), EdgeSchema, rows)
  }

  /** Column-only match scores (for the SANTOS_Col variant mentioned in
    * Sec. 8.2): best per-method colMatch per (query column, lake column), as
    * a local DataFrame (q_table, q_col, t_table, t_col, col_match).
    */
  def columnOnlyScores(ann: QueryAnnotation, index: LakeIndex): DataFrame = {
    val view = index.serving
    val parts = Seq(
      for (qcs <- ann.kbCSRows; tcs <- view.kbCS) yield colMatch(qcs, tcs),
      for (qcs <- ann.synCSRows; s <- view.synth) yield colMatch(qcs, s.cs),
    ).flatten
    require(parts.nonEmpty, "at least one method required")
    val rows = parts.flatten.groupMapReduce(_._1)(_._2.score)(math.max).toSeq.map { case (k, m) =>
      Row(k.qTable, k.qCol, k.tTable, k.tCol, m)
    }
    ServingView.localFrame(sessionOf(ann), ColumnScoreSchema, rows)
  }

  private val EdgeSchema = ServingView.schema("q_table" -> StringType, "q_a" -> IntegerType,
    "q_b" -> IntegerType, "t_table" -> StringType, "t_a" -> IntegerType, "t_b" -> IntegerType,
    "pm" -> DoubleType)
  private val ColumnScoreSchema = ServingView.schema("q_table" -> StringType, "q_col" -> IntegerType,
    "t_table" -> StringType, "t_col" -> IntegerType, "col_match" -> DoubleType)

  private def sessionOf(ann: QueryAnnotation): SparkSession =
    Seq(ann.kbCS, ann.kbRS, ann.synCS, ann.synRS).flatten.head.sparkSession
}
