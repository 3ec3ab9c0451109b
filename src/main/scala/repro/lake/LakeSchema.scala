package repro.lake

import scala.collection.mutable

import com.ibm.icu.lang.UCharacter
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Long ("cells") representation of a data lake.
  *
  * SANTOS treats the lake as a corpus of tables whose cell *values* (not
  * metadata) drive annotation. A lake of many small tables maps poorly onto
  * one-DataFrame-per-table, so the entire lake is a single DataFrame of cells:
  *
  * {{{ (table_id, col_id, col_name, row_id, value, is_string) }}}
  *
  * SANTOS's offline phases (column semantics, relationship semantics, FD
  * mining, sizing the synthesized dictionaries) each look at one table at a
  * time, so they run as one shuffle of the string cells by `table_id`
  * ([[perTable]]) followed by plain Scala over each table's
  * [[TableCells]]; only the synthesized overlaps compare tables.
  */
object LakeSchema {

  /** Schema of the cells relation. */
  val cellSchema: StructType = StructType(Seq(
    StructField("table_id", StringType, nullable = false),
    StructField("col_id", IntegerType, nullable = false),
    StructField("col_name", StringType, nullable = false),
    StructField("row_id", LongType, nullable = false),
    StructField("value", StringType, nullable = true),
    StructField("is_string", BooleanType, nullable = false),
  ))

  /** One materialized table: column names, per-column string-ness, row values.
    * `rows(i)(j)` is the value of column `j` in row `i` (null allowed).
    */
  final case class TableData(
      tableId: String,
      colNames: Seq[String],
      isString: Seq[Boolean],
      rows: Seq[Seq[String]]) {
    require(colNames.length == isString.length, "colNames/isString length mismatch")
    require(rows.forall(_.length == colNames.length), s"ragged rows in $tableId")
  }

  /** Values SANTOS treats as missing (the paper's lakes contain nulls). */
  private val nullTokens = Set("", "null", "nan", "none", "n/a", "-")

  /** Normalizes a raw cell value the way SANTOS maps cells to KB labels:
    * leading and trailing spaces removed (U+0020 only, as Spark's `trim`),
    * lower-cased with ICU's full case mapping (as Spark's `lower`, which
    * lowers a word-final Σ to ς), null-ish placeholder tokens dropped. The
    * one normalization of both sides: lake cells go through it in
    * [[stringCells]], query cells on the driver in `QueryAnnotator.annotate`.
    */
  def normalizeValue(v: String): Option[String] = {
    if (v == null) None
    else {
      val b = v.indexWhere(_ != ' ')
      val t = if (b < 0) "" else UCharacter.toLowerCase(v.substring(b, v.lastIndexWhere(_ != ' ') + 1))
      if (nullTokens.contains(t)) None else Some(t)
    }
  }

  /** Bytes per slice of [[cellsOf]] at most, counting each cell's
    * characters plus 8 bytes of framing, and but for the slice's last table:
    * a slice's task carries its tables, and stays under the 1000 KiB above
    * which Spark warns of a task of very large size.
    */
  private val sliceBytes = 512 * 1024

  /** Builds the cells DataFrame for a batch of tables. The tables are
    * shipped in slices of consecutive tables, balanced by bytes, at least
    * one per core, and expanded into cells on the executors; the cells are
    * checkpointed into block storage at once, so a later task over them
    * ships only its partition's id.
    */
  def cellsOf(spark: SparkSession, tables: Seq[TableData]): DataFrame = {
    val sizes = tables.map(_.rows.iterator.flatten.map(v => Option(v).fold(0)(_.length) + 8L).sum)
    val total = math.max(1L, sizes.sum)
    val n = math.max(spark.sparkContext.defaultParallelism.toLong, (total + sliceBytes - 1) / sliceBytes)
    val slices = tables.zip(sizes.scanLeft(0L)(_ + _)).groupBy { case (_, start) => start * n / total }
      .toSeq.sortBy(_._1).map(_._2.map(_._1))
    val cells = spark.sparkContext.parallelize(slices, math.max(1, slices.size)).flatMap(_.iterator.flatMap { t =>
      t.rows.iterator.zipWithIndex.flatMap { case (row, rid) =>
        row.iterator.zipWithIndex.map { case (v, cid) =>
          Row(t.tableId, cid, t.colNames(cid), rid.toLong, v, t.isString(cid))
        }
      }
    })
    spark.createDataFrame(cells, cellSchema).localCheckpoint(eager = true)
  }

  /** [[normalizeValue]] as a Spark function; null for a dropped value. */
  private val normalized = udf((v: String) => normalizeValue(v).orNull)

  /** Normalized, non-null string cells — the input to every semantic phase.
    * Each value goes through [[normalizeValue]], so the lake and the query
    * side share one normalization; cells it drops are filtered out.
    */
  def stringCells(cells: DataFrame): DataFrame =
    cells
      .filter(col("is_string"))
      .withColumn("value", normalized(col("value")))
      .filter(col("value").isNotNull)

  /** Distinct normalized values per string column: (table_id, col_id, value). */
  def distinctColumnValues(cells: DataFrame): DataFrame =
    stringCells(cells).select("table_id", "col_id", "value").distinct()

  /** One table's normalized string cells `(col_id, row_id, value)`, and the
    * two views of them every per-table phase reads.
    */
  final class TableCells(cells: Iterable[(Int, Long, String)]) {

    /** Distinct values per column. */
    lazy val colVals: Map[Int, Set[String]] =
      cells.groupMapReduce(_._1)(c => Set(c._3))(_ ++ _)

    /** Distinct ordered value pairs per ordered pair of distinct columns of
      * one row. Both orientations are kept because KB predicates are
      * directed (Sec. 4.3: both RS(c1,c2) and RS(c2,c1) are preserved for
      * lake tables).
      */
    lazy val pairs: Map[(Int, Int), Set[(String, String)]] = {
      val acc = mutable.HashMap.empty[(Int, Int), mutable.HashSet[(String, String)]]
      cells.groupBy(_._2).valuesIterator.foreach { row =>
        for (x <- row; y <- row if x._1 != y._1)
          acc.getOrElseUpdate((x._1, y._1), mutable.HashSet.empty) += ((x._3, y._3))
      }
      acc.view.mapValues(_.toSet).toMap
    }
  }

  /** Runs `f` on every table of `cells`, on the executors: one shuffle by
    * `table_id` of the string cells [[stringCells]] normalizes, then `f` on
    * each table's [[TableCells]].
    */
  def perTable[A: Encoder](cells: DataFrame)(f: (String, TableCells) => IterableOnce[A]): Dataset[A] = {
    val spark = cells.sparkSession
    import spark.implicits._
    stringCells(cells).select("table_id", "col_id", "row_id", "value")
      .as[(String, Int, Long, String)].groupByKey(_._1)
      .flatMapGroups { (t, it) => f(t, new TableCells(it.map(c => (c._2, c._3, c._4)).toVector)) }
  }

  /** Distinct ordered value pairs per string-column pair within each table:
    * (table_id, col_a, col_b, value_a, value_b) with col_a != col_b, as
    * [[TableCells.pairs]] gives them.
    *
    * Kept for perfbench's `Pipeline`; remove with ROADMAP item 1.
    */
  def valuePairs(cells: DataFrame): DataFrame = {
    val spark = cells.sparkSession
    import spark.implicits._
    perTable(cells) { (t, tc) =>
      tc.pairs.iterator.flatMap { case ((a, b), vs) => vs.iterator.map { case (va, vb) => (t, a, b, va, vb) } }
    }.toDF("table_id", "col_a", "col_b", "value_a", "value_b")
  }

  /** Per-column profile of the lake: (table_id, col_id, col_name, is_string). */
  def columnProfile(cells: DataFrame): DataFrame =
    cells.select("table_id", "col_id", "col_name", "is_string").distinct()
}
