package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders}
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
  */
final case class SynthIndex(
    synCS: DataFrame,
    synRS: DataFrame,
    colVals: DataFrame,
    colSizes: DataFrame,
    fdPairVals: DataFrame,
    pairSizes: DataFrame) {

  def members: Seq[DataFrame] = Seq(synCS, synRS, colVals, colSizes, fdPairVals, pairSizes)

  /** The identity: [[SynthesizedKB.build]] returns the members cached.
    * Kept for perfbench's `Pipeline`; remove with ROADMAP item 1.
    */
  def materialize(): this.type = this

  def unpersistAll(): Unit = members.foreach(_.unpersist())
}

object SynthesizedKB {

  /** The key of a lake column `(table, col)` or column pair
    * `(table, a, b)`: `table#col`, `table#a#b`. It is the annotation the
    * column (pair) gives itself and every column (pair) overlapping it, on
    * the lake side and the query side alike.
    */
  def key(owner: Product): String = owner.productIterator.mkString("#")

  val defaultMaxValueSpread = 1000

  /** Builds the synthesized KB over the lake, its members cached. Kept,
    * with its unused `precomputedPairs`, for perfbench's `Pipeline`; remove
    * with ROADMAP item 1.
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
            precomputedPairs: Option[DataFrame] = None): SynthIndex = {
    val stage = TableStage(cells, excludeKb, annotate = false, synthesize = true)
    val synth = fromStage(stage, maxValueSpread)
    stage.cache(synth.members)
    synth
  }

  /** The synthesized KB from a per-table stage built with `synthesize`,
    * planned, not cached: the sizes, stored value pairs and self rows are
    * the stage's; the cross rows are the [[overlaps]] of the columns' values
    * (Eq. 5) and of the FD pairs' stored value pairs (Eq. 6).
    */
  private[core] def fromStage(stage: TableStage, maxValueSpread: Int): SynthIndex = {
    val spark = stage.tables.sparkSession
    import spark.implicits._
    val (colVals, kept, fdPairs) = (stage.colVals, stage.fdPairVals, stage.fdPairs)
    val crossCS = overlaps(colVals.as[(String, Int, String, Long)].map { case (t, c, v, n) => (v, (t, c), n) },
                           maxValueSpread, "table_id", "col_id")
    val selfCS = stage.colSizes.as[(String, Int, Long)]
      .map { case (t, c, _) => (t, c, key((t, c)), 1.0) }.toDF("table_id", "col_id", "annotation", "conf")
    val crossRS = overlaps(kept.as[(String, Int, Int, String, String, Long)]
                             .map { case (t, a, b, va, vb, n) => ((va, vb), (t, a, b), n) },
                           Int.MaxValue, "table_id", "col_a", "col_b")
    // Self rows only for pairs that keep a value pair after exclusion.
    val selfRS = fdPairs.filter(col("n_kept") > 0).as[(String, Int, Int, Long, Long)]
      .map { case (t, a, b, _, _) => (t, a, b, key((t, a, b)), 1.0) }
      .toDF("table_id", "col_a", "col_b", "annotation", "conf")
    SynthIndex(selfCS.union(crossCS), selfRS.union(crossRS), colVals.drop("n_distinct"),
               stage.colSizes, kept.drop("n_pairs"), fdPairs.drop("n_kept"))
  }

  /** Eq. 5 and Eq. 6, one formula over postings: an owner (a lake column,
    * or an FD pair) a inherits the [[key]] of every other owner b it shares
    * an element (a value, or a stored value pair) with, with confidence
    * |a ∩ b| / |a|. One exchange of the postings by element, then a count
    * per (a, b). Each posting carries its owner's size, so no join is needed.
    *
    * @param postings  (element, owner, |owner|)
    * @param maxSpread an element held by more owners is skipped
    * @param ownerCols the names of the owner's fields in the result, which
    *                  are followed by `annotation` and `conf`
    */
  private def overlaps[E: Encoder, O <: Product : Encoder](postings: Dataset[(E, O, Long)], maxSpread: Int,
                                                           ownerCols: String*): DataFrame =
    postings.groupByKey(_._1).flatMapGroups { (_, it) =>
      val owners = it.toVector
      if (owners.size > maxSpread) Iterator.empty
      else {
        val keys = owners.map(p => key(p._2))
        for (a <- owners.iterator; (b, bKey) <- owners.iterator.zip(keys) if a._2 != b._2)
          yield (a._2, a._3, bKey)
      }
    }(Encoders.tuple(implicitly[Encoder[O]], Encoders.scalaLong, Encoders.STRING))
      .toDF("owner", "size", "annotation")
      .groupBy("owner", "size", "annotation")
      .agg((count(lit(1)) / col("size")).as("conf"))
      .select(ownerCols.zipWithIndex.map { case (c, i) => col(s"owner._${i + 1}").as(c) } ++
              Seq(col("annotation"), col("conf")): _*)
}
