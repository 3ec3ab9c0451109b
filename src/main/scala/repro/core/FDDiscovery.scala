package repro.core

import org.apache.spark.sql.DataFrame

/** Unary functional-dependency discovery over every string-column pair of
  * every table (the FDEP [12] bottom-up variant the paper uses, Sec. 7.2:
  * consider all pairwise relationships, then check whether each satisfies an
  * FD). `col_a -> col_b` holds in a table iff no value of `col_a` co-occurs
  * with two distinct values of `col_b`; each table is checked on its own, by
  * [[TableKernel.unaryFds]] on the executors.
  */
object FDDiscovery {

  /** All unary FDs: (table_id, col_det, col_dep) with col_det -> col_dep.
    *
    * @param valuePairs distinct ordered value pairs per column pair, as
    *                   produced by [[repro.lake.LakeSchema.valuePairs]]
    */
  def unaryFds(valuePairs: DataFrame): DataFrame = {
    val spark = valuePairs.sparkSession
    import spark.implicits._
    valuePairs.select("table_id", "col_a", "col_b", "value_a", "value_b")
      .as[(String, Int, Int, String, String)].groupByKey(_._1)
      .flatMapGroups { (t, ps) =>
        TableKernel.unaryFds(TableKernel.pairsOf(ps)).map { case (d, e) => (t, d, e) }
      }.toDF("table_id", "col_det", "col_dep")
  }

  /** Ordered column pairs qualifying for a synthesized relationship: the FD
    * holds in at least one direction (the paper keeps column pairs "in a
    * functional dependency"). Both orientations of a qualifying pair are
    * emitted, consistent with [[repro.lake.LakeSchema.valuePairs]].
    */
  def meaningfulPairs(fds: DataFrame): DataFrame = {
    val spark = fds.sparkSession
    import spark.implicits._
    fds.select("table_id", "col_det", "col_dep").as[(String, Int, Int)].groupByKey(_._1)
      .flatMapGroups { (t, it) =>
        TableKernel.meaningfulPairs(it.map(f => (f._2, f._3)).toSeq).map { case (a, b) => (t, a, b) }
      }.toDF("table_id", "col_a", "col_b")
  }
}
