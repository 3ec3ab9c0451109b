package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, IntegerType, StringType}

import repro.lake.LakeSchema
import repro.lake.LakeSchema.TableCells

/** Semantic annotation of query tables (the online half of Fig. 4), as the
  * driver-side rows [[QueryAnnotator.annotate]] computes.
  *
  * Query CS from the KB uses fs only (Eq. 3, second case — the gs penalty is
  * applied once, on the lake side). Query annotations from the synthesized KB
  * are overlaps against *lake* columns / lake FD column pairs, so they share
  * the lake's annotation vocabulary and match through the inverted indexes.
  * A `None` member mirrors the disabled method of the index.
  *
  * @param kbColumns  KB CS: (table, column type)
  * @param kbPairs    KB RS, annotated by predicate
  * @param synColumns synthesized CS, annotated by lake column key
  * @param synPairs   synthesized RS, annotated by lake pair key
  */
final case class QueryAnnotation(
    kbColumns: Option[Seq[(String, ColumnType)]],
    kbPairs: Option[Seq[PairAnn]],
    synColumns: Option[Seq[ColAnn]],
    synPairs: Option[Seq[PairAnn]]) {

  // The same rows as local DataFrames, built on first use; the query phase
  // itself never reads them.
  lazy val kbCS: Option[DataFrame] = kbColumns.map(rs => ServingView.localFrame(QueryAnnotation.KbCSSchema,
    rs.map { case (t, r) => Row(t, r.col, r.annotation, r.topLevel, r.fs, r.gs, r.conf) }))
  lazy val kbRS: Option[DataFrame] = kbPairs.map(pairFrame("predicate", _))
  lazy val synCS: Option[DataFrame] = synColumns.map(rs => ServingView.localFrame(QueryAnnotation.SynCSSchema,
    rs.map(r => Row(r.table, r.col, r.annotation, r.conf))))
  lazy val synRS: Option[DataFrame] = synPairs.map(pairFrame("annotation", _))

  private def pairFrame(annCol: String, rs: Seq[PairAnn]): DataFrame = ServingView.localFrame(
    QueryAnnotation.pairSchema(annCol), rs.map(r => Row(r.table, r.a, r.b, r.annotation, r.conf)))
}

object QueryAnnotation {
  private val KbCSSchema = ServingView.schema("table_id" -> StringType, "col_id" -> IntegerType,
    "annotation" -> StringType, "top_level" -> StringType, "fs" -> DoubleType, "gs" -> DoubleType,
    "conf" -> DoubleType)
  private val SynCSSchema = ServingView.schema("table_id" -> StringType, "col_id" -> IntegerType,
    "annotation" -> StringType, "conf" -> DoubleType)
  private def pairSchema(annCol: String) = ServingView.schema("table_id" -> StringType,
    "col_a" -> IntegerType, "col_b" -> IntegerType, annCol -> StringType, "conf" -> DoubleType)
}

/** The query semantic tree (Sec. 3): BFS edges (parent, child) rooted at the
  * intent column, over columns connected by any non-empty RS.
  */
final case class QueryTree(tableId: String, intentCol: Int, edges: Seq[(Int, Int)])

object QueryAnnotator {

  /** Annotates all query tables in one pass against the lake index.
    *
    * One Spark job collects the query's string cells, normalized on the
    * driver by [[LakeSchema.normalizeValue]], the function
    * [[LakeSchema.stringCells]] applies to the lake's cells; the four
    * annotations are then computed on the driver, table by table, against
    * the index's [[LakeIndex.serving]] view: the KB ones by the lake side's
    * kernel ([[TableKernel.columnSemantics]] with `isQuery = true`,
    * [[TableKernel.relationshipSemantics]]), the synthesized ones as overlaps
    * with the lake's columns and FD pairs.
    *
    * The DataFrame input is kept for perfbench's `Pipeline`; remove with
    * ROADMAP item 1.
    */
  def annotate(queryCells: DataFrame, index: LakeIndex): QueryAnnotation = {
    val view = index.serving
    val tables: Seq[(String, TableCells)] =
      queryCells.filter(col("is_string")).select("table_id", "col_id", "row_id", "value")
        .collect().toSeq
        .flatMap(r => LakeSchema.normalizeValue(r.getString(3)).map((r.getString(0), r.getInt(1), r.getLong(2), _)))
        .groupMap(_._1)(c => (c._2, c._3, c._4))
        .toSeq.map { case (t, cells) => t -> new TableCells(cells) }

    val kbAnn = view.kb.map { kb =>
      tables.map { case (t, tc) =>
        val cs = TableKernel.columnSemantics(tc.colVals, kb, isQuery = true)
        val rs = TableKernel.relationshipSemantics(tc.pairs, kb, cs.map(_.col).toSet)
        (cs.map(t -> _), rs.map(r => PairAnn(t, r.a, r.b, r.predicate, r.conf)))
      }
    }

    val synCS = view.synth.map { s =>
      for ((t, tc) <- tables; (c, values) <- tc.colVals.toSeq; (l, n) <- overlaps(values, s.colVals))
        yield ColAnn(t, c, SynthesizedKB.key(l), n.toDouble / values.size)
    }
    val synRS = view.synth.map { s =>
      for ((t, tc) <- tables; ((a, b), values) <- tc.pairs.toSeq;
           (l, n) <- overlaps(values, s.fdPairVals))
        yield PairAnn(t, a, b, SynthesizedKB.key(l), n.toDouble / values.size)
    }

    QueryAnnotation(kbAnn.map(_.flatMap(_._1)), kbAnn.map(_.flatMap(_._2)), synCS, synRS)
  }

  /** |q ∩ l| for every lake entry l sharing a key with the query set q. */
  private def overlaps[K, L](keys: Set[K], index: Map[K, Seq[L]]): Map[L, Int] =
    keys.toSeq.flatMap(index.getOrElse(_, Nil)).groupMapReduce(identity)(_ => 1)(_ + _)

  /** Builds the query semantic tree for each (query table, intent column):
    * BFS from the intent column over the undirected graph whose edges are
    * column pairs with non-empty RS from either method. Children are visited
    * in ascending column order for determinism.
    */
  def queryTrees(ann: QueryAnnotation, intents: Map[String, Int]): Seq[QueryTree] = {
    val rsEdges: Seq[(String, Int, Int)] =
      (ann.kbPairs.toSeq ++ ann.synPairs.toSeq).flatten.map(r => (r.table, r.a, r.b)).distinct
    val byTable: Map[String, Seq[(Int, Int)]] =
      rsEdges.groupBy(_._1).map { case (t, xs) => t -> xs.map(x => (x._2, x._3)) }

    intents.toSeq.sortBy(_._1).map { case (tableId, intent) =>
      val adj: Map[Int, Seq[Int]] = byTable.getOrElse(tableId, Seq.empty)
        .flatMap { case (a, b) => Seq(a -> b, b -> a) }
        .groupBy(_._1).map { case (c, xs) => c -> xs.map(_._2).distinct.sorted }
      val visited = scala.collection.mutable.Set(intent)
      val edges = scala.collection.mutable.ListBuffer[(Int, Int)]()
      val queue = scala.collection.mutable.Queue(intent)
      while (queue.nonEmpty) {
        val u = queue.dequeue()
        for (v <- adj.getOrElse(u, Seq.empty) if !visited.contains(v)) {
          visited += v
          edges += ((u, v))
          queue.enqueue(v)
        }
      }
      QueryTree(tableId, intent, edges.toList)
    }
  }
}
