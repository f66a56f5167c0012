package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import scala.collection.mutable

/** Per-stage figures of the offline job, collected by a SparkListener:
  * stage wall time, task count and time, shuffle bytes, spill and executor
  * CPU.
  */
final class SparkStages extends SparkListener {
  final class Stage(val id: Int) {
    var wallMs = 0L
    val taskMs = mutable.ArrayBuffer.empty[Double]
    var shuffleRead = 0L
    var shuffleWrite = 0L
    var spill = 0L
    var cpuNs = 0L
  }
  private val stages = mutable.LinkedHashMap.empty[(Int, Int), Stage]

  private def stage(id: Int, attempt: Int): Stage = stages.getOrElseUpdate((id, attempt), new Stage(id))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val s = stage(e.stageId, e.stageAttemptId)
    s.taskMs += e.taskInfo.duration.toDouble
    val m = e.taskMetrics
    if (m != null) {
      s.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      s.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      s.spill += m.memoryBytesSpilled + m.diskBytesSpilled
      s.cpuNs += m.executorCpuTime
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stage(i.stageId, i.attemptNumber()).wallMs =
      (for (a <- i.submissionTime; b <- i.completionTime) yield b - a).getOrElse(0L)
  }

  def reset(): Unit = synchronized(stages.clear())

  /** Summary of every stage recorded since the last reset. */
  def summary(sc: SparkContext): Seq[(String, Metric)] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    synchronized {
      val all = stages.values.toSeq
      val longest = all.maxByOption(_.wallMs)
      val skew = longest.filter(_.taskMs.nonEmpty).map(s => s.taskMs.max / math.max(1.0, Stats.median(s.taskMs)))
      Seq(
        "spark.stage_s" -> Metric.single(all.map(_.wallMs).sum / 1e3, "s", s"${all.size} stages, summed"),
        "spark.tasks" -> Metric.single(all.map(_.taskMs.size).sum.toDouble, "count", ""),
        "spark.shuffle_read_bytes" -> Metric.single(all.map(_.shuffleRead).sum.toDouble, "B", ""),
        "spark.shuffle_write_bytes" -> Metric.single(all.map(_.shuffleWrite).sum.toDouble, "B", ""),
        "spark.spill_bytes" -> Metric.single(all.map(_.spill).sum.toDouble, "B", "memory plus disk"),
        "spark.executor_cpu_s" -> Metric.single(all.map(_.cpuNs).sum / 1e9, "s", ""),
        "spark.task_skew" -> Metric.single(skew.getOrElse(0.0), "ratio",
          s"max/median task time in the longest stage (${longest.map(_.wallMs).getOrElse(0L)} ms)"))
    }
  }
}
