package perfbench

import repro.core.online.RequestEngine

/** The timed end-to-end metrics of one run (set-up and heap are measured
  * by [[Main]] around the workload), plus detail figures that are printed
  * and recorded but not part of the result line.
  */
final case class Measured(opP50: Metric, itemsPerS: Metric, details: Seq[(String, Metric)])

trait Workload {
  def name: String
  /** Generate the inputs from the seed and load them; replaces any earlier state. */
  def setup(): Unit
  /** Release the loaded state (tables, engines) so its heap can be measured. */
  def dropState(): Unit
  /** Rows held by the loaded state, the base of `heap_bytes_per_row`. */
  def rowsHeld: Long
  def warmup(seconds: Double): Unit
  def measure(seconds: Double, out: Outcomes): Measured
  def check(out: Outcomes): Unit
  def layerInput: LayerInput
  /** Extra traced figures a workload has beyond the shared layer set. */
  def traceExtras(seconds: Double): Seq[(String, Metric)] = Nil
  def describe: Seq[(String, String)]
  /** Set-up paid once per process before the repeated set-ups (Spark start). */
  def startupS: Double = 0.0
  /** Bytes per row measured by the workload itself, when the retained-heap
    * difference does not apply (offline tables live in Spark's cache).
    */
  def storeBytesPerRow: Option[Double] = None
  def close(): Unit = ()
}

object Workload {
  /** Run one request, recording a thrown exception as a failure. */
  def serve(out: => Outcomes, known: Throwable => Option[String] = _ => None)(body: => Unit): Boolean =
    try { body; true }
    catch {
      case e: Exception =>
        val k = known(e)
        out.fail(k.getOrElse(s"exception: ${Failures.describe(e)}"), e.toString.take(160), k.nonEmpty)
        false
    }

  /** Latency and throughput of a request workload, measured in rounds of
    * one open-loop second followed by one closed-loop second. Each figure
    * is the median over rounds, so a slow spell of the host that covers a
    * few rounds does not move it (the union and offline workloads get the
    * same protection by repeating whole runs). Failed operations are
    * recorded by `openOp` and `closedOp` as they happen.
    */
  def requestRounds(seconds: Double, openRate: Double, openWorkers: Int, clients: Int, out: Outcomes, note: String)
                   (openOp: Int => Boolean)(closedOp: (Int, Long) => Boolean): Measured = {
    val rounds = math.max(1, (seconds / 2).toInt)
    val half = seconds / (2 * rounds)
    val lat = scala.collection.mutable.ArrayBuffer.empty[Double]
    val lag = scala.collection.mutable.ArrayBuffer.empty[Double]
    val p50s = scala.collection.mutable.ArrayBuffer.empty[Double]
    val rates = scala.collection.mutable.ArrayBuffer.empty[Double]
    var sent = 0
    var done = 0L
    (1 to rounds).foreach { _ =>
      val base = sent
      val o = Load.open(openRate, half, openWorkers)(i => openOp(base + i))
      sent += o.offered
      lat ++= o.latMs; lag ++= o.lagMs
      p50s += Stats.quantile(Stats.sorted(o.latMs), 0.5)
      val c = Load.closed(clients, half)(closedOp)
      rates += c.perSecond
      done += c.done
    }
    val ok = lat.count(!_.isInfinite)
    out.ok(ok + done)
    val sorted = Stats.sorted(lat)
    Measured(
      Metric.ofMedian(p50s, "ms", s"median over $rounds rounds of the open-loop p50 (${openRate.toInt}/s, " +
        s"$openWorkers workers), each request timed from its scheduled send; $sent requests"),
      Metric.ofMedian(rates, "1/s", s"median over $rounds rounds of the closed-loop rate, $note; $done requests"),
      Seq(
        "req_p99_ms" -> Metric(Stats.quantile(sorted, 0.99), "ms", sorted.length, 0.0,
          s"${sorted.length - (0.99 * sorted.length).toInt} samples beyond; failures count as infinite"),
        "bench.gen_lag_p99_ms" -> Metric(Stats.quantile(Stats.sorted(lag), 0.99), "ms", lag.length, 0.0,
          "how late the open-loop generator released requests"),
        "open_loop_failed" -> Metric.single((sent - ok).toDouble, "count", s"of $sent")))
  }
}

/** Result comparison for the correctness checks. */
object Check {
  def same(a: Any, b: Any): Boolean = (a, b) match {
    case (null, null) => true
    case (null, _) | (_, null) => false
    case (x: Number, y: Number) if x.isInstanceOf[java.lang.Double] || y.isInstanceOf[java.lang.Double] =>
      val (p, q) = (x.doubleValue, y.doubleValue)
      p == q || math.abs(p - q) <= 1e-9 * math.max(1.0, math.max(math.abs(p), math.abs(q)))
    case (x: Number, y: Number) => x.longValue == y.longValue
    case (x, y) => x == y
  }

  /** Serve one request and compare every expected feature; a thrown
    * exception or any mismatching feature fails the request. `known`
    * names a failure cause that is an already-documented seed defect.
    */
  def request(engine: RequestEngine, req: Map[String, Any], expected: Map[String, Any], out: Outcomes,
              known: (String, Any, Any) => Option[String] = (_, _, _) => None,
              knownException: Throwable => Option[String] = _ => None): Unit = {
    val got = try Right(engine.request(req)) catch { case e: Exception => Left(e) }
    got match {
      case Left(e) =>
        val d = knownException(e)
        out.fail(d.getOrElse(s"exception: ${Failures.describe(e)}"), s"request $req".take(160), d.nonEmpty)
      case Right(res) =>
        val bad = expected.toSeq.sortBy(_._1).filterNot { case (f, v) => same(res.getOrElse(f, null), v) }
        if (bad.isEmpty) out.ok()
        else {
          val (f, v) = bad.head
          val k = known(f, res.getOrElse(f, null), v)
          out.fail(k.getOrElse(s"mismatch: feature $f"),
            s"key ${req.getOrElse("k", "?")} ts ${req.getOrElse("ts", "?")}: engine ${res.getOrElse(f, null)} expected $v" +
              (if (bad.size > 1) s" (+${bad.size - 1} more features)" else ""), k.nonEmpty)
        }
    }
  }
}
