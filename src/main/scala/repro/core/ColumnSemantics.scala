package repro.core

import org.apache.spark.sql.DataFrame

import repro.kb.KBIndex
import repro.lake.LakeSchema

/** KB-based column semantics (Sec. 4.1–4.2).
  *
  * For every string column: map each distinct normalized value to KB labels,
  * expand through the type hierarchy, enforce semantic consistency (keep only
  * the top-level type mapped by the majority of values; ties go to the rarer
  * top-level, footnote 3), then score each surviving type `a` with
  *
  *   fs(a)       = |c_a| / |c_KB|                      (Eq. 1)
  *   CS_CONF(a)  = fs(a) * gs(a)   for lake columns    (Eq. 3)
  *   CS_CONF(a)  = fs(a)           for query columns
  *
  * Every input is one table's columns, so this runs per table:
  * [[TableKernel.columnSemantics]] on the executors, against the broadcast
  * KB view.
  *
  * Output schema: (table_id, col_id, annotation, top_level, fs, gs, conf).
  */
object ColumnSemantics {

  /** Computes CS for every string column of every table in `cells`.
    * Kept for perfbench's `Pipeline`; remove with ROADMAP item 1.
    *
    * @param cells   lake or query tables in cells form
    * @param kb      the KB dictionaries
    * @param isQuery query tables skip the gs penalty (Eq. 3, second case)
    */
  def compute(cells: DataFrame, kb: KBIndex, isQuery: Boolean): DataFrame = {
    val spark = cells.sparkSession
    import spark.implicits._
    val view = kb.broadcastView
    LakeSchema.perTable(cells) { (t, tc) =>
      TableKernel.columnSemantics(tc.colVals, view.value, isQuery)
        .map(r => (t, r.col, r.annotation, r.topLevel, r.fs, r.gs, r.conf))
    }.toDF("table_id", "col_id", "annotation", "top_level", "fs", "gs", "conf")
  }
}
