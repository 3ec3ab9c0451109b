package repro.integration

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.SparkContext
import org.apache.spark.repro.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts. */
object SparkJobs {
  def count[A](sc: SparkContext)(body: => A): (A, Long) = {
    val jobs = new AtomicLong()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      val a = body
      ListenerBusAccess.drain(sc)
      (a, jobs.get())
    } finally sc.removeSparkListener(listener)
  }
}
