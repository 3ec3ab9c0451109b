package repro.core

import org.apache.spark.sql.DataFrame

import repro.kb.KBView
import repro.lake.LakeSchema

/** Semantic annotation of query tables (the online half of Fig. 4).
  *
  * Query CS from the KB uses fs only (Eq. 3, second case — the gs penalty is
  * applied once, on the lake side). Query annotations from the synthesized KB
  * are overlaps against *lake* columns / lake FD column pairs, so they share
  * the lake's annotation vocabulary and match through the inverted indexes.
  */
final case class QueryAnnotation(
    kbCS: Option[DataFrame],  // (table_id, col_id, annotation, top_level, fs, gs, conf)
    kbRS: Option[DataFrame],  // (table_id, col_a, col_b, predicate, conf)
    synCS: Option[DataFrame], // (table_id, col_id, annotation, conf)
    synRS: Option[DataFrame], // (table_id, col_a, col_b, annotation, conf)
    rows: Option[AnnotationRows] = None) {

  // Each annotation as driver-side rows: the ones `annotate` computed, else
  // collected from its DataFrame.
  def kbCSRows: Option[Seq[ColAnn]] = rows.fold(kbCS.map(ServingView.colAnns(_, withGs = false)))(_.kbCS)
  def kbRSRows: Option[Seq[PairAnn]] = rows.fold(kbRS.map(ServingView.pairAnns(_, "predicate")))(_.kbRS)
  def synCSRows: Option[Seq[ColAnn]] = rows.fold(synCS.map(ServingView.colAnns(_, withGs = false)))(_.synCS)
  def synRSRows: Option[Seq[PairAnn]] = rows.fold(synRS.map(ServingView.pairAnns(_, "annotation")))(_.synRS)
}

/** The annotations of a [[QueryAnnotation]] as the driver-side rows
  * [[QueryAnnotator.annotate]] computed them from, so scoring need not
  * collect the DataFrames again (a persisted DataFrame costs a Spark job per
  * collect, even over local data).
  */
final case class AnnotationRows(
    kbCS: Option[Seq[ColAnn]],
    kbRS: Option[Seq[PairAnn]],
    synCS: Option[Seq[ColAnn]],
    synRS: Option[Seq[PairAnn]])

/** The query semantic tree (Sec. 3): BFS edges (parent, child) rooted at the
  * intent column, over columns connected by any non-empty RS.
  */
final case class QueryTree(tableId: String, intentCol: Int, edges: Seq[(Int, Int)])

object QueryAnnotator {

  /** The normalized string cells of the query tables, grouped on the driver
    * the way [[LakeSchema.distinctColumnValues]] and [[LakeSchema.valuePairs]]
    * group them in Spark.
    */
  private final class QueryCells(cells: Seq[(String, Int, Long, String)]) {
    /** Distinct values per (table, col). */
    val colVals: Map[(String, Int), Set[String]] =
      cells.groupMapReduce(c => (c._1, c._2))(c => Set(c._4))(_ ++ _)

    /** Distinct ordered value pairs per (table, col_a, col_b), col_a != col_b. */
    val pairs: Map[(String, Int, Int), Set[(String, String)]] =
      cells.groupBy(c => (c._1, c._3)).valuesIterator.flatMap { row =>
        for (x <- row; y <- row if x._2 != y._2) yield ((x._1, x._2, y._2), (x._4, y._4))
      }.toSeq.groupMapReduce(_._1)(p => Set(p._2))(_ ++ _)
  }

  /** Annotates all query tables in one pass against the lake index.
    *
    * One Spark job collects the query's normalized string cells; the four
    * annotations are then computed on the driver against the index's
    * [[LakeIndex.serving]] view, with the semantics of
    * [[ColumnSemantics.compute]] (`isQuery = true`),
    * [[RelationshipSemantics.compute]] and the synthesized overlaps, and
    * returned both as driver-side rows and as local DataFrames.
    */
  def annotate(queryCells: DataFrame, index: LakeIndex): QueryAnnotation = {
    val view = index.serving
    val spark = queryCells.sparkSession
    import spark.implicits._
    val q = new QueryCells(
      LakeSchema.stringCells(queryCells).select("table_id", "col_id", "row_id", "value")
        .collect().toSeq.map(r => (r.getString(0), r.getInt(1), r.getLong(2), r.getString(3))))

    val kbCS = view.kb.map(kb => columnSemantics(q, kb))
    val kbRS = for (kb <- view.kb; cs <- kbCS) yield relationshipSemantics(q, kb, cs)

    val synCS = view.synth.map { s =>
      q.colVals.toSeq.flatMap { case ((t, c), values) =>
        overlaps(values, s.colVals).map { case ((lt, lc), n) =>
          ColAnn(t, c, s"$lt#$lc", n.toDouble / values.size)
        }
      }
    }
    val synRS = view.synth.map { s =>
      q.pairs.toSeq.flatMap { case ((t, a, b), values) =>
        overlaps(values, s.fdPairVals).map { case ((lt, la, lb), n) =>
          PairAnn(t, a, b, s"$lt#$la#$lb", n.toDouble / values.size)
        }
      }
    }

    QueryAnnotation(
      kbCS.map(_.toDF("table_id", "col_id", "annotation", "top_level", "fs", "gs", "conf")),
      kbRS.map(_.map(r => (r.table, r.a, r.b, r.annotation, r.conf))
        .toDF("table_id", "col_a", "col_b", "predicate", "conf")),
      synCS.map(_.map(r => (r.table, r.col, r.annotation, r.conf))
        .toDF("table_id", "col_id", "annotation", "conf")),
      synRS.map(_.map(r => (r.table, r.a, r.b, r.annotation, r.conf))
        .toDF("table_id", "col_a", "col_b", "annotation", "conf")),
      Some(AnnotationRows(
        kbCS.map(_.map(r => ColAnn(r._1, r._2, r._3, r._7))), kbRS, synCS, synRS)))
  }

  /** |q ∩ l| for every lake entry l sharing a key with the query set q. */
  private def overlaps[K, L](keys: Set[K], index: Map[K, Seq[L]]): Map[L, Int] =
    keys.toSeq.flatMap(index.getOrElse(_, Nil)).groupMapReduce(identity)(_ => 1)(_ + _)

  /** Eq. 1 and Eq. 3 (query case, conf = fs) after the semantic-consistency
    * filter: the majority top level wins, ties go to the rarer top level
    * (a top level without an entity count sorts first), then by name.
    * Rows: (table_id, col_id, annotation, top_level, fs, gs, conf).
    */
  private def columnSemantics(q: QueryCells, kb: KBView)
      : Seq[(String, Int, String, String, Double, Double, Double)] =
    q.colVals.toSeq.flatMap { case ((t, c), values) =>
      val nKb = values.count(kb.covered)
      val mapped = values.toSeq.flatMap(v => kb.types.getOrElse(v, Nil).map(v -> _))
      if (mapped.isEmpty) Nil
      else {
        val majority = mapped.groupMapReduce(_._2.topLevel)(m => Set(m._1))(_ ++ _).toSeq
          .minBy { case (top, vs) => (-vs.size, kb.topLevelCounts.get(top), top) }._1
        mapped.filter(_._2.topLevel == majority).groupBy(_._2).toSeq.map { case (ty, vs) =>
          val fs = vs.size.toDouble / nKb
          (t, c, ty.typeId, ty.topLevel, fs, ty.gs, fs)
        }
      }
    }

  /** Eq. 4 over ordered pairs of columns that both have CS; only the
    * max-scoring predicate is kept, ties going to the predicate with fewer KB
    * pairs, then by name.
    */
  private def relationshipSemantics(q: QueryCells, kb: KBView,
                                    cs: Seq[(String, Int, String, String, Double, Double, Double)])
      : Seq[PairAnn] = {
    val csCols = cs.map(r => (r._1, r._2)).toSet
    q.pairs.toSeq.flatMap { case ((t, a, b), values) =>
      if (!csCols((t, a)) || !csCols((t, b))) Nil
      else {
        val inKb = values.filter { case (va, vb) => kb.covered(va) && kb.covered(vb) }
        val nP = inKb.toSeq.flatMap(kb.predicates.getOrElse(_, Nil)).groupMapReduce(identity)(_ => 1)(_ + _)
        if (nP.isEmpty) Nil
        else {
          val (best, n) = nP.toSeq.minBy { case (p, n) => (-n, p.predPairs, p.predicate) }
          Seq(PairAnn(t, a, b, best.predicate, n.toDouble / inKb.size))
        }
      }
    }
  }

  /** Builds the query semantic tree for each (query table, intent column):
    * BFS from the intent column over the undirected graph whose edges are
    * column pairs with non-empty RS from either method. Children are visited
    * in ascending column order for determinism.
    */
  def queryTrees(ann: QueryAnnotation, intents: Map[String, Int]): Seq[QueryTree] = {
    val rsEdges: Seq[(String, Int, Int)] =
      (ann.kbRSRows.toSeq ++ ann.synRSRows.toSeq).flatten.map(r => (r.table, r.a, r.b)).distinct
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
