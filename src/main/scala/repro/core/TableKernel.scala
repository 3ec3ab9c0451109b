package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.kb.{KBIndex, KBView}
import repro.lake.LakeSchema
import repro.lake.LakeSchema.TableCells

/** A KB type of a column, scored by Eq. 1–3. */
final case class ColumnType(col: Int, annotation: String, topLevel: String,
                            fs: Double, gs: Double, conf: Double)

/** The best KB predicate of an ordered column pair, scored by Eq. 4. */
final case class PairPredicate(a: Int, b: Int, predicate: String, conf: Double)

/** A distinct value of a column, with the column's distinct-value count. */
final case class ColumnValue(col: Int, value: String, nDistinct: Long)

/** A column's distinct-value count (the Eq. 5 denominator). */
final case class ColumnSize(col: Int, nDistinct: Long)

/** A value pair an FD column pair stores in the synthesized relationship
  * dictionary, with the pair's Eq. 6 denominator.
  */
final case class FdPairValue(a: Int, b: Int, valueA: String, valueB: String, nPairs: Long)

/** An FD column pair: `nPairs` distinct value pairs (the Eq. 6 denominator,
  * before KB exclusion), `nKept` of them stored after it.
  */
final case class FdPairSize(a: Int, b: Int, nPairs: Long, nKept: Long)

/** Everything the offline phase derives from one lake table alone. */
final case class TableIndex(
    table: String,
    kbCS: Seq[ColumnType],
    kbRS: Seq[PairPredicate],
    colVals: Seq[ColumnValue],
    colSizes: Seq[ColumnSize],
    fdPairVals: Seq[FdPairValue],
    fdPairs: Seq[FdPairSize])

/** The offline phase's work within one table (Sec. 7.2–7.3) as plain Scala,
  * shared by the lake side (on the executors, one table per call) and the
  * query side (on the driver). Each function reads one table's
  * [[TableCells]] views; column ids are the table's own.
  */
object TableKernel {

  /** Eq. 1–3 after the semantic-consistency filter (Sec. 4.2): every KB type
    * of the column's majority top level, with
    * fs = |values of the type| / |values in the KB| and conf = fs·gs on the
    * lake side, fs on the query side. The majority top level maps the most
    * distinct values; ties go to the rarer top level (footnote 3; a top
    * level without an entity count sorts first), then by name.
    */
  def columnSemantics(colVals: Map[Int, Set[String]], kb: KBView, isQuery: Boolean): Seq[ColumnType] =
    colVals.toSeq.flatMap { case (c, values) =>
      val nKb = values.count(kb.covered)
      val mapped = values.toSeq.flatMap(v => kb.types.getOrElse(v, Nil).map(v -> _))
      if (mapped.isEmpty || nKb == 0) Nil
      else {
        val majority = mapped.groupMapReduce(_._2.topLevel)(m => Set(m._1))(_ ++ _).toSeq
          .minBy { case (top, vs) => (-vs.size, kb.topLevelCounts.get(top), top) }._1
        mapped.filter(_._2.topLevel == majority).groupMapReduce(_._2)(_ => 1)(_ + _).toSeq.map {
          case (ty, n) =>
            val fs = n.toDouble / nKb
            ColumnType(c, ty.typeId, ty.topLevel, fs, ty.gs, if (isQuery) fs else fs * ty.gs)
        }
      }
    }

  /** Eq. 4 over the ordered column pairs whose columns both have KB types
    * (`csCols`): conf = |pairs carrying p| / |pairs with both values in the
    * KB|. Only the best predicate is kept; ties go to the predicate with
    * fewer KB pairs (footnote 4), then by name.
    */
  def relationshipSemantics(pairs: Map[(Int, Int), Set[(String, String)]], kb: KBView,
                            csCols: Set[Int]): Seq[PairPredicate] =
    pairs.toSeq.flatMap { case ((a, b), values) =>
      if (!csCols(a) || !csCols(b)) Nil
      else {
        val inKb = values.filter { case (va, vb) => kb.covered(va) && kb.covered(vb) }
        val nP = inKb.toSeq.flatMap(kb.predicates.getOrElse(_, Nil)).groupMapReduce(identity)(_ => 1)(_ + _)
        if (nP.isEmpty) Nil
        else {
          val (best, n) = nP.minBy { case (p, n) => (-n, p.predPairs, p.predicate) }
          Seq(PairPredicate(a, b, best.predicate, n.toDouble / inKb.size))
        }
      }
    }

  /** Unary FDs `det -> dep` (the FDEP variant of Sec. 7.2): no value of
    * `det` co-occurs with two distinct values of `dep`.
    */
  def unaryFds(pairs: Map[(Int, Int), Set[(String, String)]]): Seq[(Int, Int)] =
    pairs.toSeq.collect { case (ab, values) if values.map(_._1).size == values.size => ab }

  /** Ordered column pairs qualifying for a synthesized relationship: both
    * orientations of every FD, once each.
    */
  def meaningfulPairs(fds: Seq[(Int, Int)]): Seq[(Int, Int)] =
    fds.flatMap { case (d, e) => Seq((d, e), (e, d)) }.distinct

  /** The synthesized relationship dictionary's share of one table: the value
    * pairs of every meaningful pair, minus those `exclude`'s relationship
    * dictionary already holds (Sec. 7.2), and every meaningful pair's size.
    */
  def fdPairs(pairs: Map[(Int, Int), Set[(String, String)]],
              exclude: Option[KBView]): (Seq[FdPairValue], Seq[FdPairSize]) = {
    val perPair = meaningfulPairs(unaryFds(pairs)).map { case ab @ (a, b) =>
      val values = pairs(ab).toSeq
      val kept = exclude.fold(values)(kb => values.filterNot(kb.predicates.contains))
      (kept.map { case (va, vb) => FdPairValue(a, b, va, vb, values.size.toLong) },
       FdPairSize(a, b, values.size.toLong, kept.size.toLong))
    }
    (perPair.flatMap(_._1), perPair.map(_._2))
  }

  /** One lake table's share of the index.
    *
    * @param kb       the KB view: annotates when `annotate`, and its
    *                 relationship dictionary filters the synthesized one
    * @param annotate compute the KB column and relationship semantics
    * @param synthesize compute the synthesized KB's per-table parts
    */
  def index(table: String, cells: TableCells, kb: Option[KBView],
            annotate: Boolean, synthesize: Boolean): TableIndex = {
    val kbCS = if (annotate) columnSemantics(cells.colVals, kb.get, isQuery = false) else Nil
    val kbRS = if (annotate) relationshipSemantics(cells.pairs, kb.get, kbCS.map(_.col).toSet) else Nil
    if (!synthesize) TableIndex(table, kbCS, kbRS, Nil, Nil, Nil, Nil)
    else {
      val sizes = cells.colVals.toSeq.map { case (c, vs) => ColumnSize(c, vs.size.toLong) }
      val colVals = cells.colVals.toSeq.flatMap { case (c, vs) =>
        vs.toSeq.map(ColumnValue(c, _, vs.size.toLong))
      }
      val (fdPairVals, fdPairSizes) = fdPairs(cells.pairs, kb)
      TableIndex(table, kbCS, kbRS, colVals, sizes, fdPairVals, fdPairSizes)
    }
  }

  /** Groups value-pair rows `(table_id, col_a, col_b, value_a, value_b)` of
    * one table into the [[TableCells.pairs]] form.
    */
  def pairsOf(rows: Iterator[(String, Int, Int, String, String)]): Map[(Int, Int), Set[(String, String)]] =
    rows.toSeq.groupMapReduce(r => (r._2, r._3))(r => Set((r._4, r._5)))(_ ++ _)
}

/** The per-table stage of the offline phase over a whole lake: one shuffle of
  * the lake's string cells by table, then [[TableKernel.index]] on every
  * table against the broadcast KB view. One row per table (a
  * [[TableIndex]]); the index members are flattened projections of it. The
  * lake never reaches the driver, and the largest table bounds one task's
  * memory.
  */
final class TableStage(val tables: DataFrame) {

  private def flat(field: String, names: String*): DataFrame =
    tables.select(col("table"), inline(col(field))).toDF(names: _*)

  def kbCS: DataFrame = flat("kbCS", "table_id", "col_id", "annotation", "top_level", "fs", "gs", "conf")
  def kbRS: DataFrame = flat("kbRS", "table_id", "col_a", "col_b", "predicate", "conf")
  def colVals: DataFrame = flat("colVals", "table_id", "col_id", "value", "n_distinct")
  def colSizes: DataFrame = flat("colSizes", "table_id", "col_id", "n_distinct")
  def fdPairVals: DataFrame = flat("fdPairVals", "table_id", "col_a", "col_b", "value_a", "value_b", "n_pairs")
  def fdPairs: DataFrame = flat("fdPairs", "table_id", "col_a", "col_b", "n_pairs", "n_kept")
}

object TableStage {

  /** Plans the stage over `cells`; see [[TableKernel.index]] for the flags. */
  def apply(cells: DataFrame, kb: Option[KBIndex], annotate: Boolean, synthesize: Boolean): TableStage = {
    val spark = cells.sparkSession
    import spark.implicits._
    val view = kb.map(_.broadcastView)
    new TableStage(LakeSchema.perTable(cells) { (t, tc) =>
      Iterator(TableKernel.index(t, tc, view.map(_.value), annotate, synthesize))
    }.toDF())
  }

  /** Persists and forces `members`, keeping `stage`, which they are computed
    * from, cached only meanwhile. All members are forced by one pass over
    * their union: one query, so their caches are built concurrently, with
    * no shuffle (unlike one `count()` each) and one final task.
    */
  def materialize(members: Seq[DataFrame], stage: Option[DataFrame]): Unit = {
    stage.foreach(_.persist())
    try {
      members.foreach(_.persist())
      members.map(_.select(lit(1))).reduceOption(_ union _)
        .foreach(_.coalesce(1).foreachPartition((rows: Iterator[Row]) => rows.foreach(_ => ())))
    } finally stage.foreach(_.unpersist())
  }
}
