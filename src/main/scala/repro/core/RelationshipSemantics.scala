package repro.core

import org.apache.spark.sql.DataFrame

import repro.kb.KBIndex

/** KB-based relationship semantics (Sec. 4.3).
  *
  * For every *ordered* pair of string columns (c_i, c_j) whose columns both
  * have non-empty CS, look up each distinct value pair in the KB relationship
  * dictionary and score predicates with
  *
  *   RS_CONF(c_i, p, c_j) = |(c_i,c_j)_p| / |(c_i,c_j)_KB|        (Eq. 4)
  *
  * where the denominator counts distinct value pairs with *both* values in the
  * KB. Only the maximum-scoring predicate is kept per ordered pair (ties go to
  * the predicate with the fewest KB pairs, footnote 4). Both orientations of a
  * column pair are computed, because KB predicates are directed and the paper
  * preserves RS(c1,c2) and RS(c2,c1) for lake tables.
  *
  * Value pairs never cross tables, so this runs per table:
  * [[TableKernel.relationshipSemantics]] on the executors, against the
  * broadcast KB view.
  *
  * Output schema: (table_id, col_a, col_b, predicate, conf).
  */
object RelationshipSemantics {

  /** Scores value pairs as [[repro.lake.LakeSchema.valuePairs]] gives them; they are
    * grouped by table together with the columns that have CS.
    *
    * Kept for perfbench's `Pipeline`; remove with ROADMAP item 1.
    */
  def computeFromPairs(valuePairs: DataFrame, kb: KBIndex, cs: DataFrame): DataFrame = {
    val spark = valuePairs.sparkSession
    import spark.implicits._
    val view = kb.broadcastView
    val pairs = valuePairs.select("table_id", "col_a", "col_b", "value_a", "value_b")
      .as[(String, Int, Int, String, String)].groupByKey(_._1)
    val csCols = cs.select("table_id", "col_id").as[(String, Int)].groupByKey(_._1)
    pairs.cogroup(csCols) { (t, ps, cols) =>
      TableKernel.relationshipSemantics(TableKernel.pairsOf(ps), view.value, cols.map(_._2).toSet)
        .map(r => (t, r.a, r.b, r.predicate, r.conf))
    }.toDF("table_id", "col_a", "col_b", "predicate", "conf")
  }
}
