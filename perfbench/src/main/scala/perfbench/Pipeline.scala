package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.core.UnionSearch.Ranked
import repro.kb.{KBDictionaries, KBIndex, World}
import repro.lake.LakeSchema

/** The SANTOS_Full pipeline driven from outside the program, through the
  * public functions `Harness.run(.., Method.SantosFull)` composes.
  *
  * Untraced, both paths make exactly the program's calls. Traced, the index
  * is built component by component, in the order `SemanticIndex.build`
  * composes them, and every lazily planned result is forced with persist +
  * count inside its span, so each span owns the Spark work of its layer.
  */
object Pipeline {

  private def force(df: DataFrame): DataFrame = {
    df.persist()
    df.count()
    df
  }

  private def rowsOf(dfs: Seq[DataFrame]): Long = dfs.map(_.count()).sum

  /** KB dictionaries + the SANTOS_Full lake index, materialized. */
  def buildIndex(spark: SparkSession, world: World, cells: DataFrame, tr: Tracer): LakeIndex = {
    val kb = tr.span("kb.KBDictionaries.build")(KBDictionaries.build(spark, world).materialize())(
      k => rowsOf(Seq(k.labels, k.typeDict, k.relDict, k.coveredLabels)))
    if (!tr.enabled) SemanticIndex.build(cells, Some(kb), useSynth = true).materialize()
    else {
      val before = Storage.snapshot(spark.sparkContext)
      val idx = tr.span("core.SemanticIndex.build")(tracedIndex(cells, kb, tr))(
        idx => rowsOf(indexEntries(idx)))
      tr.count("core.SemanticIndex.cached_bytes")(Storage.newBytes(spark.sparkContext, before))
      idx
    }
  }

  /** The inverted indexes of a lake index: KB and synthesized CS and RS. */
  private def indexEntries(idx: LakeIndex): Seq[DataFrame] =
    idx.kbCS.toSeq ++ idx.kbRS.toSeq ++ idx.synth.toSeq.flatMap(s => Seq(s.synCS, s.synRS))

  /** `SemanticIndex.build(cells, Some(kb), useSynth = true).materialize()`,
    * one component per span. Unary FDs are forced in a span of their own
    * before `SynthesizedKB.build`, which mines them again internally.
    */
  def tracedIndex(cells: DataFrame, kb: KBIndex, tr: Tracer): LakeIndex = {
    val pairs = tr.span("lake.LakeSchema.valuePairs")(force(LakeSchema.valuePairs(cells)))(_.count())
    val kbCS = tr.span("core.ColumnSemantics.compute")(
      force(ColumnSemantics.compute(cells, kb, isQuery = false)))(_.count())
    val kbRS = tr.span("core.RelationshipSemantics.computeFromPairs")(
      force(RelationshipSemantics.computeFromPairs(pairs, kb, kbCS)))(_.count())
    tr.span("core.FDDiscovery.unaryFds")(force(FDDiscovery.unaryFds(pairs)))(_.count())
      .unpersist(blocking = true)
    val synth = tr.span("core.SynthesizedKB.build")(
      SynthesizedKB.build(cells, excludeKb = Some(kb), precomputedPairs = Some(pairs)).materialize())(
      s => rowsOf(Seq(s.synCS, s.synRS)))
    tr.count("core.SynthesizedKB.synCS_rows")(synth.synCS.count())
    tr.count("core.SynthesizedKB.synRS_rows")(synth.synRS.count())
    LakeIndex(Some(kb), Some(kbCS), Some(kbRS), Some(synth), shared = Seq(pairs))
  }

  /** One search call, the call sequence of `Harness.runSantos`: annotate,
    * persist the annotations, query trees, edge scores, tree assembly.
    */
  def search(queryCells: DataFrame, intents: Map[String, Int], index: LakeIndex, k: Int,
             tr: Tracer, queryId: String): Map[String, Seq[Ranked]] = {
    val ann = tr.span("core.QueryAnnotator.annotate", queryId) {
      val a = QueryAnnotator.annotate(queryCells, index)
      annotations(a).foreach(df => if (tr.enabled) force(df) else df.persist())
      a
    }(a => rowsOf(annotations(a)))
    try {
      val trees = tr.span("core.QueryAnnotator.queryTrees", queryId)(
        QueryAnnotator.queryTrees(ann, intents))(_.map(_.edges.size.toLong).sum)
      val edges = tr.span("core.Scoring.edgeScores", queryId) {
        val e = Scoring.edgeScores(ann, index)
        if (tr.enabled) force(e) else e
      }(_.count())
      tr.count("core.UnionSearch.candidates")(edges.select("q_table", "t_table").distinct().count())
      try {
        tr.span("core.UnionSearch.searchAll", queryId)(UnionSearch.searchAll(trees, edges, k))(
          _.values.map(_.size.toLong).sum)
      } finally if (tr.enabled) edges.unpersist()
    } finally annotations(ann).foreach(_.unpersist())
  }

  private def annotations(a: QueryAnnotation): Seq[DataFrame] =
    Seq(a.kbCS, a.kbRS, a.synCS, a.synRS).flatten
}
