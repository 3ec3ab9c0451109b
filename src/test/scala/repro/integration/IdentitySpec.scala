package repro.integration

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import java.security.MessageDigest

import scala.io.Source

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.SparkSpec
import repro.baselines.D3L
import repro.core.SemanticIndex
import repro.eval.{Harness, Method}
import repro.kb.{KBDictionaries, World}
import repro.lake.BenchmarkGen
import repro.lake.BenchmarkGen.Benchmark

/** Golden digests of every ranking and every index member, on the three lite
  * lakes (default seeds) for the four SANTOS variants and D³L.
  *
  * A key is `lake/method/query:<id>` or `lake/method/member:<name>`; its
  * value is a SHA-256 over canonical lines, with each double written as its
  * `doubleToLongBits`. A ranking's lines are its table ids and scores, in
  * rank order. A member's lines are its rows, sorted. A member is its rows,
  * not a DataFrame, so a change of representation keeps the same digests.
  * SANTOS_Col shares SANTOS_Full's index.
  *
  * Regenerate the expected file only for a change that means to move a
  * ranking or a member:
  * {{{ sbt "Test/runMain repro.integration.IdentityDigests src/test/resources/identity-digests.tsv" }}}
  */
object IdentityDigests {

  val Resource = "/identity-digests.tsv"

  private val lakes: Seq[(String, (SparkSession, World) => Benchmark)] = Seq(
    "TUS" -> ((s, w) => BenchmarkGen.tus(s, w)),
    "SMALL" -> ((s, w) => BenchmarkGen.small(s, w)),
    "LARGE" -> ((s, w) => BenchmarkGen.large(s, w)))

  private val methods = Seq(Method.SantosFull, Method.SantosKB, Method.SantosSynth,
                            Method.SantosCol, Method.D3LBaseline)

  /** (useKb, useSynth) of a SANTOS variant's index. */
  private def indexOf(m: Method): Option[(Boolean, Boolean)] = m match {
    case Method.SantosFull | Method.SantosCol => Some((true, true))
    case Method.SantosKB => Some((true, false))
    case Method.SantosSynth => Some((false, true))
    case _ => None
  }

  /** One digest: (key, SHA-256 hex, number of lines). */
  final case class Digest(key: String, sha: String, n: Int)

  private def digest(key: String, lines: Seq[String]): Digest = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes(UTF_8)))
    Digest(key, md.digest().map(b => f"$b%02x").mkString, lines.size)
  }

  private def field(x: Any): String = x match {
    case null => "∅"
    case d: Double => java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(d))
    case a: Array[Double] => a.map(field).mkString("[", ",", "]")
    case m: Map[_, _] => m.toSeq.map { case (k, v) => s"${field(k)}=${field(v)}" }.sorted.mkString("{", ",", "}")
    case other => other.toString
  }

  private def rowLines(df: DataFrame): Seq[String] =
    df.collect().toSeq.map(_.toSeq.map(field).mkString("\t")).sorted

  private def sigLines(sigs: Seq[D3L.ColSig]): Seq[String] =
    sigs.map(s => Seq(s.table, s.colId, s.name, s.isString, s.patterns, s.emb, s.deciles)
      .map(field).mkString("\t")).sorted

  /** Every digest of one lake, built in `spark`. */
  def ofLake(spark: SparkSession, world: World, lake: String, bench: Benchmark): Seq[Digest] = {
    val rankings = methods.flatMap { m =>
      val res = Harness.run(spark, world, bench, m)
      res.rankings.toSeq.sortBy(_._1).map { case (q, ranked) =>
        digest(s"$lake/${m.label}/query:$q", ranked.map(r => s"${r.tableId}\t${field(r.score)}"))
      }
    }
    val kb = KBDictionaries.build(spark, world)
    val members = methods.flatMap(m => indexOf(m).map(m -> _)).groupMap(_._2)(_._1).toSeq.flatMap {
      case ((useKb, useSynth), ms) =>
        val index = SemanticIndex.build(bench.lakeCells, if (useKb) Some(kb) else None, useSynth)
        try {
          val named = index.kbCS.map("kbCS" -> _).toSeq ++ index.kbRS.map("kbRS" -> _) ++
            index.synth.toSeq.flatMap(s =>
              Seq("synCS", "synRS", "colVals", "colSizes", "fdPairVals", "pairSizes").zip(s.members))
          val lines = named.map { case (name, df) => name -> rowLines(df) }
          for (m <- ms; (name, ls) <- lines) yield digest(s"$lake/${m.label}/member:$name", ls)
        } finally index.unpersistAll()
    }
    val d3l = digest(s"$lake/${Method.D3LBaseline.label}/member:lakeSigs",
                     sigLines(D3L.buildIndex(bench.lakeCells).lakeSigs))
    kb.unpersistAll()
    rankings ++ members :+ d3l
  }

  /** Every digest of every lake, one lake at a time. */
  def all(spark: SparkSession, world: World): Seq[Digest] =
    lakes.flatMap { case (lake, gen) =>
      val bench = gen(spark, world)
      try ofLake(spark, world, lake, bench)
      finally { bench.lakeCells.unpersist(); bench.queryCells.unpersist() }
    }

  def read(lines: Iterator[String]): Seq[Digest] =
    lines.filterNot(l => l.isEmpty || l.startsWith("#")).map { l =>
      val Array(k, sha, n) = l.split("\t")
      Digest(k, sha, n.toInt)
    }.toSeq

  def main(args: Array[String]): Unit = {
    val out = Paths.get(args.headOption.getOrElse(s"src/test/resources$Resource"))
    val ds = all(SparkSpec.shared, new World(42L))
    val header = "# key\tsha256\tlines (IdentitySpec; regenerate with IdentityDigests.main)"
    Files.write(out, (header +: ds.map(d => s"${d.key}\t${d.sha}\t${d.n}")).mkString("", "\n", "\n").getBytes(UTF_8))
    println(s"wrote ${ds.size} digests to $out")
    SparkSpec.shared.stop()
  }
}

/** Every ranking and index member equals its golden digest (see
  * [[IdentityDigests]]); a mismatch names the queries and members that moved.
  */
class IdentitySpec extends SparkSpec {

  test("rankings and index members match their golden digests on TUS, SMALL and LARGE-lite") {
    val src = Source.fromInputStream(getClass.getResourceAsStream(IdentityDigests.Resource), "UTF-8")
    val expected = try IdentityDigests.read(src.getLines()) finally src.close()
    val got = IdentityDigests.all(spark, new World(42L))
    val want = expected.map(d => d.key -> d).toMap
    val have = got.map(d => d.key -> d).toMap
    val moved = (want.keySet ++ have.keySet).toSeq.sorted.flatMap { k =>
      (want.get(k), have.get(k)) match {
        case (Some(w), Some(h)) if w == h => None
        case (w, h) => Some(s"$k: expected ${w.fold("none")(d => s"${d.sha.take(12)} (${d.n} lines)")}, " +
                            s"got ${h.fold("none")(d => s"${d.sha.take(12)} (${d.n} lines)")}")
      }
    }
    moved.foreach(m => Console.err.println(s"[IdentitySpec] moved: $m"))
    assert(expected.nonEmpty)
    if (moved.nonEmpty) fail(s"${moved.size} of ${want.size} digests moved:\n${moved.take(40).mkString("\n")}")
  }
}
