package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.CatalystTypeConverters
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.types.{DataType, StringType, StructField, StructType}

import repro.kb.KBView

/** A column annotation: CS_CONF `conf` of `annotation` on column (table, col).
  * `gs` is the annotation's granularity score (Eq. 2) for KB types and 1 for
  * synthesized ones.
  */
final case class ColAnn(table: String, col: Int, annotation: String, conf: Double, gs: Double = 1.0)

/** A relationship annotation: RS_CONF `conf` of `annotation` on the ordered
  * column pair (a, b) of `table`.
  */
final case class PairAnn(table: String, a: Int, b: Int, annotation: String, conf: Double)

/** The synthesized-KB half of a [[ServingView]].
  *
  * @param cs         `synCS`: annotation -> lake columns
  * @param rs         `synRS`: annotation -> lake column pairs
  * @param colVals    `colVals`: value -> lake columns (table, col)
  * @param fdPairVals `fdPairVals`: value pair -> lake FD pairs (table, a, b)
  */
final class SynthView(
    val cs: Map[String, Seq[ColAnn]],
    val rs: Map[String, Seq[PairAnn]],
    val colVals: Map[String, Seq[(String, Int)]],
    val fdPairVals: Map[(String, String), Seq[(String, Int, Int)]])

/** The query phase's view of a [[LakeIndex]] (Sec. 7.4): every inverted index
  * it probes, as a driver-side hash map, so one query is a few thousand map
  * lookups instead of a chain of Spark joins. A `None` member mirrors the
  * disabled method of the index.
  *
  * @param kbCS `kbCS`: annotation (type) -> lake columns, with gs
  * @param kbRS `kbRS`: annotation (predicate) -> lake column pairs
  */
final class ServingView(
    val kb: Option[KBView],
    val kbCS: Option[Map[String, Seq[ColAnn]]],
    val kbRS: Option[Map[String, Seq[PairAnn]]],
    val synth: Option[SynthView])

object ServingView {

  /** Collects the persisted inverted indexes of `index`, one Spark job each. */
  def collect(index: LakeIndex): ServingView =
    new ServingView(
      index.kb.map(_.view),
      index.kbCS.map(df => colAnns(df, withGs = true).groupBy(_.annotation)),
      index.kbRS.map(df => pairAnns(df, "predicate").groupBy(_.annotation)),
      index.synth.map { s =>
        val colVals = s.colVals.select("value", "table_id", "col_id").collect()
          .map(r => r.getString(0) -> (r.getString(1).intern(), r.getInt(2)))
        val fdPairVals = s.fdPairVals.select("value_a", "value_b", "table_id", "col_a", "col_b")
          .collect()
          .map(r => (r.getString(0), r.getString(1)) -> (r.getString(2).intern(), r.getInt(3), r.getInt(4)))
        new SynthView(
          colAnns(s.synCS, withGs = false).groupBy(_.annotation),
          pairAnns(s.synRS, "annotation").groupBy(_.annotation),
          colVals.toSeq.groupMap(_._1)(_._2),
          fdPairVals.toSeq.groupMap(_._1)(_._2))
      })

  /** Collects CS rows (table_id, col_id, annotation, conf[, gs]). Without gs
    * (the synthesized method, or the query side) every row gets gs = 1.
    */
  def colAnns(df: DataFrame, withGs: Boolean): Seq[ColAnn] = {
    val cols = Seq("table_id", "col_id", "annotation", "conf") ++ (if (withGs) Seq("gs") else Nil)
    df.select(cols.head, cols.tail: _*).collect().toSeq.map { r =>
      ColAnn(r.getString(0).intern(), r.getInt(1), r.getString(2).intern(), r.getDouble(3),
             if (withGs) r.getDouble(4) else 1.0)
    }
  }

  /** A schema of `fields`, typed as `toDF` types tuple fields: strings
    * nullable, numbers not.
    */
  def schema(fields: (String, DataType)*): StructType =
    StructType(fields.map { case (n, t) => StructField(n, t, nullable = t == StringType) })

  /** A local DataFrame of `rows` under `schema`. It is built from external
    * rows, so no encoder is derived and no code generated, which keeps the
    * few the query phase builds per query cheap.
    */
  def localFrame(spark: SparkSession, schema: StructType, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava, schema)

  /** The rows of `df`: read in place when it is a local relation, as
    * [[localFrame]] builds them, else collected. A collect plans a query and
    * posts SQL execution events even over local rows.
    */
  def rowsOf(df: DataFrame): Seq[Row] = df.queryExecution.analyzed match {
    case local: LocalRelation =>
      val toRow = CatalystTypeConverters.createToScalaConverter(df.schema)
      local.data.map(toRow(_).asInstanceOf[Row])
    case _ => df.collect().toSeq
  }

  /** Collects RS rows (table_id, col_a, col_b, `annCol`, conf). */
  def pairAnns(df: DataFrame, annCol: String): Seq[PairAnn] =
    df.select("table_id", "col_a", "col_b", annCol, "conf").collect().toSeq.map { r =>
      PairAnn(r.getString(0).intern(), r.getInt(1), r.getInt(2), r.getString(3).intern(), r.getDouble(4))
    }
}
