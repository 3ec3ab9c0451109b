package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.kb.KBIndex

/** The synthesized-KB index built from the lake itself (Sec. 5, Sec. 7.2).
  *
  * Synthesized annotations are lake column (pair) identities: column `c`
  * "inherits" the synthesized type of column `c_j` with confidence
  * |c ∩ c_j| / |c| (Eq. 5), and column pair (c_i,c_j) inherits the synthesized
  * relationship of (d_i,d_j) with confidence
  * |(c_i,c_j) ∩ (d_i,d_j)| / |(c_i,c_j)| (Eq. 6). Only column pairs forming a
  * unary FD get synthesized relationships, and — when an existing KB is in
  * play — only value pairs *not found in the KB relationship dictionary* are
  * stored (Sec. 7.2), so the synthesized KB compensates for, rather than
  * duplicates, KB coverage.
  *
  * @param synCS      (table_id, col_id, annotation, conf) — annotation is a
  *                   lake column key "table#col" (self rows have conf 1)
  * @param synRS      (table_id, col_a, col_b, annotation, conf) — annotation
  *                   is a lake pair key "table#ca#cb" (self rows have conf 1)
  * @param colVals    lake distinct (table_id, col_id, value) — retained so the
  *                   query phase can annotate query columns by overlap
  * @param colSizes   (table_id, col_id, n_distinct)
  * @param fdPairVals (table_id, col_a, col_b, value_a, value_b) — stored value
  *                   pairs of FD column pairs (post KB exclusion)
  * @param pairSizes  (table_id, col_a, col_b, n_pairs) — total distinct value
  *                   pairs per FD pair (the Eq. 6 denominator, pre-exclusion)
  * @param stage      the per-table stage the members are computed from,
  *                   cached only while [[materialize]] runs
  */
final case class SynthIndex(
    synCS: DataFrame,
    synRS: DataFrame,
    colVals: DataFrame,
    colSizes: DataFrame,
    fdPairVals: DataFrame,
    pairSizes: DataFrame,
    stage: Option[DataFrame] = None) {

  def members: Seq[DataFrame] = Seq(synCS, synRS, colVals, colSizes, fdPairVals, pairSizes)

  def materialize(): this.type = {
    TableStage.materialize(members, stage)
    this
  }

  def unpersistAll(): Unit = members.foreach(_.unpersist())
}

object SynthesizedKB {

  /** Key of a lake column, used as a synthesized type annotation. */
  def colKey(table: org.apache.spark.sql.Column, colId: org.apache.spark.sql.Column) =
    concat_ws("#", table, colId)

  /** Key of a lake column pair, used as a synthesized relationship annotation. */
  def pairKey(table: org.apache.spark.sql.Column,
              a: org.apache.spark.sql.Column, b: org.apache.spark.sql.Column) =
    concat_ws("#", table, a, b)

  val defaultMaxValueSpread = 1000

  /** Builds the synthesized KB over the lake. Kept, with its unused
    * `precomputedPairs`, for perfbench's `Pipeline`; remove with ROADMAP
    * item 1.
    *
    * @param cells     lake cells
    * @param excludeKb when SANTOS runs with an existing KB, its index; value
    *                  pairs found in the KB relationship dictionary are then
    *                  not stored in the synthesized relationship dictionary
    * @param maxValueSpread guard against quadratic blow-up on ubiquitous
    *                  values: a value occurring in more than this many columns
    *                  is skipped in the column overlap (stopword-like values
    *                  carry no discriminating signal); it still counts in its
    *                  columns' sizes
    * @param precomputedPairs unused: value pairs are derived per table from
    *                  `cells`
    */
  def build(cells: DataFrame, excludeKb: Option[KBIndex] = None,
            maxValueSpread: Int = defaultMaxValueSpread,
            precomputedPairs: Option[DataFrame] = None): SynthIndex =
    fromStage(TableStage(cells, excludeKb, annotate = false, synthesize = true), maxValueSpread)

  /** The synthesized KB from a per-table stage built with `synthesize`: the
    * sizes, stored value pairs and self annotations are the stage's; the
    * cross-table overlaps (Eq. 5, Eq. 6) are one exchange of the values (value
    * pairs) followed by a count per column (pair) pair. Every row carries its
    * own column's (pair's) size, so no join with the sizes is needed.
    */
  private[core] def fromStage(stage: TableStage, maxValueSpread: Int): SynthIndex = {
    val spark = stage.tables.sparkSession
    import spark.implicits._

    // ---- synthesized type dictionary (Eq. 5) ----
    val colVals = stage.colVals
    val colSizes = stage.colSizes
    val crossCS = colVals.as[(String, Int, String, Long)].groupByKey(_._3)
      .flatMapGroups { (_, it) =>
        val cols = it.toVector
        if (cols.size > maxValueSpread) Iterator.empty
        else for (a <- cols.iterator; b <- cols.iterator if a._1 != b._1 || a._2 != b._2)
          yield (a._1, a._2, a._4, b._1, b._2)
      }.toDF("ta", "ca", "n_distinct", "tb", "cb")
      .groupBy("ta", "ca", "n_distinct", "tb", "cb")
      .agg(count(lit(1)).as("n_ov"))
      .select(col("ta").as("table_id"), col("ca").as("col_id"),
              colKey(col("tb"), col("cb")).as("annotation"),
              (col("n_ov") / col("n_distinct")).as("conf"))
    val selfCS = colSizes.select(
      col("table_id"), col("col_id"),
      colKey(col("table_id"), col("col_id")).as("annotation"),
      lit(1.0).as("conf"))
    val synCS = selfCS.union(crossCS)

    // ---- synthesized relationship dictionary (Eq. 6, Sec. 7.2) ----
    val kept = stage.fdPairVals
    val fdPairs = stage.fdPairs
    val crossRS = kept.as[(String, Int, Int, String, String, Long)].groupByKey(p => (p._4, p._5))
      .flatMapGroups { (_, it) =>
        val ps = it.toVector
        for (a <- ps.iterator; b <- ps.iterator if a._1 != b._1 || a._2 != b._2 || a._3 != b._3)
          yield (a._1, a._2, a._3, a._6, b._1, b._2, b._3)
      }.toDF("ta", "caa", "cab", "n_pairs", "tb", "cba", "cbb")
      .groupBy("ta", "caa", "cab", "n_pairs", "tb", "cba", "cbb")
      .agg(count(lit(1)).as("n_ov"))
      .select(col("ta").as("table_id"), col("caa").as("col_a"), col("cab").as("col_b"),
              pairKey(col("tb"), col("cba"), col("cbb")).as("annotation"),
              (col("n_ov") / col("n_pairs")).as("conf"))
    // Self annotations only for pairs that keep a value pair after exclusion.
    val selfRS = fdPairs.filter(col("n_kept") > 0)
      .select(col("table_id"), col("col_a"), col("col_b"),
              pairKey(col("table_id"), col("col_a"), col("col_b")).as("annotation"),
              lit(1.0).as("conf"))
    val synRS = selfRS.union(crossRS)

    SynthIndex(synCS, synRS, colVals.drop("n_distinct"), colSizes, kept.drop("n_pairs"),
               fdPairs.drop("n_kept"), Some(stage.tables))
  }
}
