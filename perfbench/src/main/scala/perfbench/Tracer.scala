package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** One recorded call into a program layer. Times are JVM-relative nanos.
  *
  * @param queryId the query table the call served, "batch" for a batch of
  *                queries, "-" for index calls
  * @param countNs time spent after the span counting its rows, which its
  *                parent's self time excludes
  * @param measured whether the call ran inside the measured window (set-up
  *                calls are recorded too, but reported only when a span name
  *                has no measured call)
  */
final case class Span(
    id: Int,
    name: String,
    parent: Option[Int],
    queryId: String,
    measured: Boolean,
    startNs: Long,
    endNs: Long,
    countNs: Long,
    rows: Long,
    gcMs: Long) {
  def wallMs: Double = (endNs - startNs) / 1e6
}

/** Spark work attributed to one span through its job group. */
final class SparkWork {
  var jobs = 0L
  var tasks = 0L
  var taskRunMs = 0L
  var shuffleWriteBytes = 0L
  var spillBytes = 0L

  def add(o: SparkWork): Unit = {
    jobs += o.jobs; tasks += o.tasks; taskRunMs += o.taskRunMs
    shuffleWriteBytes += o.shuffleWriteBytes; spillBytes += o.spillBytes
  }
}

/** Records spans around the benchmark's calls into the program.
  *
  * Every span runs its calls under a job group of its own, and a
  * SparkListener attributes each job and task to that group, so Spark work
  * lands on exactly one span (its "self" work; parents sum their children).
  * Spans stay in memory until the run ends. A disabled tracer runs the body
  * and records nothing, so the untraced run pays no tracing cost.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {

  private val spans = mutable.ArrayBuffer[Span]()
  private val openIds = mutable.Stack[Int]()
  private var nextId = 0
  private val counts = mutable.Map[String, Long]()
  @volatile var measuring = false

  private val workByGroup = new ConcurrentHashMap[String, SparkWork]()
  private val groupByStage = new ConcurrentHashMap[Int, String]()
  private val unattributed = new SparkWork

  private def groupOf(id: Int) = s"perfbench-span-$id"

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      val w = workFor(group)
      w.synchronized { w.jobs += 1 }
      group.foreach(g => e.stageIds.foreach(s => groupByStage.putIfAbsent(s, g)))
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val w = workFor(Option(groupByStage.get(e.stageId)))
      w.synchronized {
        w.tasks += 1
        Option(e.taskMetrics).foreach { m =>
          w.taskRunMs += m.executorRunTime
          w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
          w.spillBytes += m.diskBytesSpilled
        }
      }
    }
  }

  private def workFor(group: Option[String]): SparkWork = group match {
    case Some(g) if g.startsWith("perfbench-span-") =>
      workByGroup.computeIfAbsent(g, _ => new SparkWork)
    case _ => unattributed
  }

  if (enabled) sc.addSparkListener(listener)

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Runs `body` as a span. Once the span has ended, `rows` gives its
    * `.rows` counter; any Spark job that needs runs outside every span.
    */
  def span[A](name: String, queryId: String = "-")(body: => A)(rows: A => Long): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = openIds.headOption
      openIds.push(id)
      sc.setJobGroup(groupOf(id), name, interruptOnCancel = false)
      val gc0 = gcMillis()
      val t0 = System.nanoTime()
      try {
        val a = body
        val t1 = System.nanoTime()
        val gc = gcMillis() - gc0
        sc.clearJobGroup()
        val n = rows(a)
        spans += Span(id, name, parent, queryId, measuring, t0, t1, System.nanoTime() - t1, n, gc)
        a
      } finally {
        openIds.pop()
        restoreGroup()
      }
    }

  private def restoreGroup(): Unit = openIds.headOption match {
    case Some(p) => sc.setJobGroup(groupOf(p), "", interruptOnCancel = false)
    case None => sc.clearJobGroup()
  }

  /** Adds to a named count, outside every span. */
  def count(name: String)(n: => Long): Unit =
    if (enabled) {
      sc.clearJobGroup()
      counts(name) = counts.getOrElse(name, 0L) + n
      restoreGroup()
    }

  def counted(name: String): Long = counts.getOrElse(name, 0L)

  /** Waits until the listener has seen every event posted so far. */
  def drain(): Unit = if (enabled) ListenerBusAccess.drain(sc)

  def recorded: Seq[Span] = spans.toSeq

  /** Spark work of a span and all its descendants. */
  def work(span: Span): SparkWork = {
    val total = new SparkWork
    def visit(id: Int): Unit = {
      Option(workByGroup.get(groupOf(id))).foreach(total.add)
      spans.iterator.filter(_.parent.contains(id)).foreach(c => visit(c.id))
    }
    visit(span.id)
    total
  }

  /** A span's wall time minus the time its child spans cover. */
  def selfMs(span: Span): Double =
    span.wallMs - spans.iterator.filter(_.parent.contains(span.id))
      .map(c => c.wallMs + c.countNs / 1e6).sum

  /** Jobs that ran outside every span (the benchmark's own bookkeeping). */
  def unattributedJobs: Long = unattributed.jobs
}
