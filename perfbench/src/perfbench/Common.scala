package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import java.util.concurrent.locks.LockSupport
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Order statistics over measured samples. */
object Stats {
  /** Linear-interpolated quantile of an ascending array (q in [0, 1]). */
  def quantile(sorted: Array[Double], q: Double): Double = {
    require(sorted.nonEmpty, "no samples")
    val pos = q * (sorted.length - 1)
    val lo = math.floor(pos).toInt
    val frac = pos - lo
    if (frac == 0 || lo + 1 >= sorted.length) sorted(lo)
    else if (sorted(lo + 1).isInfinite) sorted(lo + 1) // a failed operation counts as infinitely slow
    else sorted(lo) + (sorted(lo + 1) - sorted(lo)) * frac
  }

  def sorted(xs: Iterable[Double]): Array[Double] = { val a = xs.toArray; java.util.Arrays.sort(a); a }

  def median(xs: Iterable[Double]): Double = quantile(sorted(xs), 0.5)

  /** (q3 - q1) / median: the run-to-run spread measure used throughout. */
  def relIqr(xs: Iterable[Double]): Double = {
    val s = sorted(xs)
    val m = quantile(s, 0.5)
    if (m == 0) 0.0 else (quantile(s, 0.75) - quantile(s, 0.25)) / math.abs(m)
  }
}

/** One reported metric: the value, its unit, and the samples behind it. */
final case class Metric(value: Double, unit: String, samples: Int, spread: Double, note: String)

object Metric {
  /** A median over samples, with its interquartile spread. */
  def ofMedian(xs: Iterable[Double], unit: String, note: String): Metric =
    Metric(Stats.median(xs), unit, xs.size, Stats.relIqr(xs), note)
  def single(v: Double, unit: String, note: String): Metric = Metric(v, unit, 1, 0.0, note)
}

/** Operations attempted and failed, itemised by cause. A cause is either a
  * named, already-known defect of the program or an unexplained failure;
  * both count as failed.
  */
final class Outcomes {
  val attempted = new AtomicLong(0)
  private val causes = new java.util.concurrent.ConcurrentHashMap[String, AtomicLong]()
  private val examples = new java.util.concurrent.ConcurrentHashMap[String, String]()
  private val known = java.util.concurrent.ConcurrentHashMap.newKeySet[String]()

  def ok(n: Long = 1): Unit = attempted.addAndGet(n)
  def fail(cause: String, example: => String, knownDefect: Boolean, n: Long = 1): Unit = {
    attempted.addAndGet(n)
    causes.computeIfAbsent(cause, _ => new AtomicLong(0)).addAndGet(n)
    examples.putIfAbsent(cause, example)
    if (knownDefect) known.add(cause)
  }
  def failed: Long = causes.values.asScala.map(_.get).sum
  def unexplained: Long =
    causes.asScala.collect { case (c, n) if !known.contains(c) => n.get }.sum
  def report: Seq[String] = causes.asScala.toSeq.sortBy(-_._2.get).map { case (c, n) =>
    val tag = if (known.contains(c)) "known seed defect" else "UNEXPLAINED"
    s"failure [$tag] x${n.get}: $c -- e.g. ${examples.get(c)}"
  }
}

/** Exception classification shared by the request workloads. */
object Failures {
  def describe(e: Throwable): String = {
    val top = e.getStackTrace.find(_.getClassName.startsWith("repro."))
      .map(f => s"${f.getClassName.split('.').last}.${f.getMethodName}").getOrElse("?")
    s"${e.getClass.getSimpleName} in $top"
  }
}

/** JVM measurements: retained heap after a full collection and GC time. */
object Jvm {
  def usedAfterGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
  /** Seconds from JVM start to now (millisecond clock of the runtime bean). */
  def sinceStartS(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
}

/** Open- and closed-loop load generators. */
object Load {

  final case class OpenResult(latMs: Array[Double], lagMs: Array[Double], failed: Int, offered: Int)

  /** Open loop: a generator thread releases operation i at t0 + i/rate and
    * `workers` threads execute them. Latency is measured from the scheduled
    * release time, so a stall also delays every request queued behind it.
    * A failed operation is recorded as an infinite latency.
    */
  def open(rate: Double, seconds: Double, workers: Int)(op: Int => Boolean): OpenResult = {
    val n = math.max(1, (rate * seconds).toInt)
    val lat = new Array[Double](n)
    val lag = new Array[Double](n)
    val failed = new AtomicInteger(0)
    val pool = Executors.newFixedThreadPool(workers)
    val periodNs = 1e9 / rate
    val t0 = System.nanoTime() + 1000000L
    var i = 0
    while (i < n) {
      val due = t0 + (i * periodNs).toLong
      var now = System.nanoTime()
      while (now < due) { LockSupport.parkNanos(due - now); now = System.nanoTime() }
      lag(i) = (now - due) / 1e6
      val idx = i
      pool.execute { () =>
        val ok = try op(idx) catch { case _: Throwable => false }
        lat(idx) = if (ok) (System.nanoTime() - due) / 1e6 else Double.PositiveInfinity
        if (!ok) failed.incrementAndGet()
      }
      i += 1
    }
    pool.shutdown()
    pool.awaitTermination(120, TimeUnit.SECONDS)
    OpenResult(lat, lag, failed.get, n)
  }

  final case class ClosedResult(done: Long, failed: Long, seconds: Double) {
    def perSecond: Double = done / seconds
  }

  /** Closed loop: `threads` clients each send their next operation as soon
    * as the previous one returns, for `seconds`.
    */
  def closed(threads: Int, seconds: Double)(op: (Int, Long) => Boolean): ClosedResult = {
    val done = new AtomicLong(0)
    val failed = new AtomicLong(0)
    val t0 = System.nanoTime()
    val end = t0 + (seconds * 1e9).toLong
    val ths = (0 until threads).map { t =>
      val th = new Thread(() => {
        var i = 0L
        while (System.nanoTime() < end) {
          val ok = try op(t, i) catch { case _: Throwable => false }
          if (ok) done.incrementAndGet() else failed.incrementAndGet()
          i += 1
        }
      }, s"client-$t")
      th.start(); th
    }
    ths.foreach(_.join())
    ClosedResult(done.get, failed.get, (System.nanoTime() - t0) / 1e9)
  }
}

/** In-memory span recorder for the traced run. Spans are recorded by the
  * benchmark around its calls into each layer (single-threaded replay):
  * name, start, end, parent span and request id. `on = false` keeps the
  * same call structure with no recording, which is how the tracing
  * overhead is measured.
  */
final class Tracer(val on: Boolean) {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var cap = 1 << 16
  private var nameOf = new Array[Int](cap)
  private var start = new Array[Long](cap)
  private var end = new Array[Long](cap)
  private var parent = new Array[Int](cap)
  private var req = new Array[Int](cap)
  private var n = 0
  private var current = -1

  private def grow(): Unit = {
    cap *= 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap); start = java.util.Arrays.copyOf(start, cap)
    end = java.util.Arrays.copyOf(end, cap); parent = java.util.Arrays.copyOf(parent, cap)
    req = java.util.Arrays.copyOf(req, cap)
  }

  @inline def span[T](name: String, reqId: Int)(body: => T): T =
    if (!on) body
    else {
      if (n == cap) grow()
      val i = n
      n += 1
      nameOf(i) = nameIds.getOrElseUpdate(name, { names += name; names.size - 1 })
      parent(i) = current
      req(i) = reqId
      current = i
      start(i) = System.nanoTime()
      try body
      finally { end(i) = System.nanoTime(); current = parent(i) }
    }

  def size: Int = n

  /** name -> (spans, total ns, self ns); self time is a span's duration
    * minus the time its direct children cover.
    */
  def totals: Map[String, (Long, Long, Long)] = {
    val childNs = new Array[Long](n)
    var i = 0
    while (i < n) { if (parent(i) >= 0) childNs(parent(i)) += end(i) - start(i); i += 1 }
    val acc = mutable.HashMap.empty[String, (Long, Long, Long)]
    i = 0
    while (i < n) {
      val d = end(i) - start(i)
      val (c, t, s) = acc.getOrElse(names(nameOf(i)), (0L, 0L, 0L))
      acc(names(nameOf(i))) = (c + 1, t + d, s + d - childNs(i))
      i += 1
    }
    acc.toMap
  }

  /** Write every span as CSV: id,name,start_ns,end_ns,parent,request. */
  def writeCsv(path: java.nio.file.Path): Unit = {
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      w.write("id,name,start_ns,end_ns,parent,request\n")
      var i = 0
      while (i < n) {
        w.write(s"$i,${names(nameOf(i))},${start(i)},${end(i)},${parent(i)},${req(i)}\n"); i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  val Off = new Tracer(false)
}

/** Minimal JSON rendering for the result line and the result record. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d).replace("E", "e")
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
