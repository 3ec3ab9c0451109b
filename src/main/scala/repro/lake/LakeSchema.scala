package repro.lake

import com.ibm.icu.lang.UCharacter
import org.apache.spark.sql.{DataFrame, SparkSession, Row}
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
  * Every SANTOS phase (column semantics, relationship semantics, FD mining,
  * the synthesized KB) is then a scan/join/aggregate over this one relation —
  * the distributed-dataflow formulation of the paper's per-table loops.
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

  /** Normalizes a raw cell value the way SANTOS maps cells to KB labels, and
    * exactly as [[stringCells]] does in Spark: leading and trailing spaces
    * removed (U+0020 only, as Spark's `trim`), lower-cased with ICU's full
    * case mapping (as Spark's `lower`, which lowers a word-final Σ to ς),
    * null-ish placeholder tokens dropped.
    */
  def normalizeValue(v: String): Option[String] = {
    if (v == null) None
    else {
      val b = v.indexWhere(_ != ' ')
      val t = if (b < 0) "" else UCharacter.toLowerCase(v.substring(b, v.lastIndexWhere(_ != ' ') + 1))
      if (nullTokens.contains(t)) None else Some(t)
    }
  }

  /** Builds the cells DataFrame for a batch of tables. */
  def cellsOf(spark: SparkSession, tables: Seq[TableData]): DataFrame = {
    val rows = tables.iterator.flatMap { t =>
      t.rows.iterator.zipWithIndex.flatMap { case (row, rid) =>
        row.iterator.zipWithIndex.map { case (v, cid) =>
          Row(t.tableId, cid, t.colNames(cid), rid.toLong, v, t.isString(cid))
        }
      }
    }.toSeq
    spark.createDataFrame(spark.sparkContext.parallelize(rows, math.max(1, rows.size / 50000)), cellSchema)
  }

  /** Normalized, non-null string cells — the input to every semantic phase. */
  def stringCells(cells: DataFrame): DataFrame = {
    cells
      .filter(col("is_string") && col("value").isNotNull)
      .withColumn("value", lower(trim(col("value"))))
      .filter(length(col("value")) > 0 && !col("value").isin(nullTokens.toSeq: _*))
  }

  /** Distinct normalized values per string column: (table_id, col_id, value). */
  def distinctColumnValues(cells: DataFrame): DataFrame =
    stringCells(cells).select("table_id", "col_id", "value").distinct()

  /** Distinct ordered value pairs per string-column pair within each table:
    * (table_id, col_a, col_b, value_a, value_b) with col_a != col_b. Both
    * orientations are emitted because KB predicates are directed (Sec. 4.3:
    * both RS(c1,c2) and RS(c2,c1) are preserved for lake tables).
    */
  def valuePairs(cells: DataFrame): DataFrame = {
    val sc = stringCells(cells)
    val a = sc.select(
      col("table_id"), col("row_id"),
      col("col_id").as("col_a"), col("value").as("value_a"))
    val b = sc.select(
      col("table_id").as("tb"), col("row_id").as("rb"),
      col("col_id").as("col_b"), col("value").as("value_b"))
    a.join(b, col("table_id") === col("tb") && col("row_id") === col("rb") &&
             col("col_a") =!= col("col_b"))
      .select("table_id", "col_a", "col_b", "value_a", "value_b")
      .distinct()
  }

  /** Per-column profile of the lake: (table_id, col_id, col_name, is_string). */
  def columnProfile(cells: DataFrame): DataFrame =
    cells.select("table_id", "col_id", "col_name", "is_string").distinct()

  /** Count of distinct normalized values per string column. */
  def distinctValueCounts(cells: DataFrame): DataFrame =
    distinctColumnValues(cells)
      .groupBy("table_id", "col_id")
      .agg(count(lit(1)).as("n_distinct"))
}
