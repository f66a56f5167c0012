package perfbench

import java.util.concurrent.atomic.{AtomicBoolean, AtomicLong}
import java.util.concurrent.locks.LockSupport
import scala.util.Random
import repro.LocalGen
import repro.core._
import repro.core.online.{OnlineTable, PreAggTable, RequestEngine}
import repro.core.online.WindowUnionStream.StreamTuple
import repro.storage.FieldType

/** Growable column store for (key, ts, value) rows; NaN is a null value.
  * Appended by one thread, read after that thread has stopped.
  */
final class KtvRows {
  private val Chunk = 1 << 20
  private val ks = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
  private val tss = scala.collection.mutable.ArrayBuffer.empty[Array[Long]]
  private val vs = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
  @volatile var size = 0
  def add(k: Int, ts: Long, v: Double): Unit = {
    if (size % Chunk == 0) { ks += new Array[Int](Chunk); tss += new Array[Long](Chunk); vs += new Array[Double](Chunk) }
    val c = size / Chunk; val i = size % Chunk
    ks(c)(i) = k; tss(c)(i) = ts; vs(c)(i) = v
    size += 1
  }
  def key(i: Int): Int = ks(i / Chunk)(i % Chunk)
  def ts(i: Int): Long = tss(i / Chunk)(i % Chunk)
  def v(i: Int): Double = vs(i / Chunk)(i % Chunk)
}

/** `request-longwindow`: the Fig 10/11 shape with writes beside reads.
  * Zipf keys whose hottest key holds over 10^5 rows inside a 4 h window;
  * count/sum/avg/min/max on one value column served through a 1 s / 1 min
  * / 1 h PreAggTable, for requests spread evenly over the keys. One
  * inserter thread appends rows (a share of them late) while the request
  * clients run. A fixed 2 % of keys carry nulls in the value column.
  */
final class LongWindow(seed: Long, nproc: Int) extends Workload {
  val name = "request-longwindow"
  private val NKeys = 2000
  private val Alpha = 1.1
  private val NRows = 1000000
  private val StepMs = 14L
  private val WindowMs = 4L * 3600 * 1000
  private val NullShare = 0.05
  private val LateShare = 0.03
  val openRate = 400.0
  /** The inserter appends at a fixed rate beside both loops. Event time
    * advances with it (the rows keep the loaded density), so a faster
    * inserter slides the windows over fresher rows within a run. Left
    * unthrottled it took 160-340k rows/s depending on scheduling, and that
    * swing moved request throughput by a fifth between runs of one seed.
    */
  val insertRate = 20000.0
  private val clients = math.max(1, nproc - 1)     // closed loop, beside the inserter
  private val openWorkers = math.max(1, nproc - 2) // open loop, beside generator and inserter

  private val keyNames = Array.tabulate(NKeys + 1)(i => s"key$i")
  private def nullKey(rank: Int): Boolean = rank % 50 == 3

  val spec: FeatureSpec = FeatureSpec(
    primary = "t",
    windows = Seq(WindowDef("w4h", "k", "ts", WindowMs)),
    features = Seq(
      Feature("cnt", FeatureFn.Count, "w4h"),
      Feature("sum_v", FeatureFn.Sum("v"), "w4h"),
      Feature("avg_v", FeatureFn.Avg("v"), "w4h"),
      Feature("min_v", FeatureFn.Min("v"), "w4h"),
      Feature("max_v", FeatureFn.Max("v"), "w4h")))

  private var loaded: KtvRows = _
  private var inserted: KtvRows = _
  private var tables: Map[String, OnlineTable] = _
  private var preAgg: Map[(String, String), PreAggTable] = _
  private var engine: RequestEngine = _
  private val frontier = new AtomicLong(0)
  @volatile private var outcomes = new Outcomes

  private def rowMap(k: Int, ts: Long, v: Double): Map[String, Any] =
    Map("k" -> keyNames(k), "ts" -> ts, "v" -> (if (v.isNaN) null else v))

  private def nextValue(rnd: Random, rank: Int): Double =
    if (nullKey(rank) && rnd.nextDouble() < NullShare) Double.NaN else rnd.nextDouble() * 100.0

  def setup(): Unit = {
    dropState()
    val z = new LocalGen.Zipf(NKeys, Alpha, seed)
    val rnd = new Random(seed + 1)
    loaded = new KtvRows
    tables = Map("t" -> new OnlineTable("k", "ts"))
    preAgg = Map(("w4h", "v") -> new PreAggTable(Layers.PreAggLevels))
    engine = new RequestEngine(spec, tables, preAgg)
    var i = 0
    while (i < NRows) {
      val k = z.next()
      val ts = i * StepMs + rnd.nextInt(StepMs.toInt)
      val v = nextValue(rnd, k)
      loaded.add(k, ts, v)
      engine.insert("t", rowMap(k, ts, v))
      i += 1
    }
    frontier.set(NRows * StepMs)
    inserted = new KtvRows
  }

  def dropState(): Unit = { tables = null; preAgg = null; engine = null; loaded = null; inserted = null }
  def rowsHeld: Long = NRows.toLong

  // ------------------------------------------------------------- inserter

  private final class Inserter(ratePerS: Double, salt: Long) extends Thread("inserter") {
    private val halt = new AtomicBoolean(false)
    @volatile var done = 0L
    @volatile var ok = 0L
    override def run(): Unit = {
      val z = new LocalGen.Zipf(NKeys, Alpha, seed * 31 + salt)
      val rnd = new Random(seed * 17 + salt)
      val t0 = System.nanoTime()
      var n = 0L
      while (!halt.get()) {
        val due = t0 + (n * 1e9 / ratePerS).toLong
        val now = System.nanoTime()
        if (due > now) LockSupport.parkNanos(due - now)
        val k = z.next()
        // same event-time density as the loaded rows: StepMs per row on average
        val next = frontier.get() + 1 + rnd.nextInt(2 * StepMs.toInt - 1)
        val late = rnd.nextDouble() < LateShare
        val ts = if (late) next - 1 - rnd.nextInt(60000) else next
        val v = nextValue(rnd, k)
        inserted.add(k, ts, v)
        if (Workload.serve(outcomes)(engine.insert("t", rowMap(k, ts, v)))) ok += 1
        if (!late) frontier.set(ts)
        n += 1
        done = n
      }
    }
    def finish(): Long = { halt.set(true); join(); done }
  }

  /** Request keys are uniform over the keys (every key asks equally often
    * while the data is skewed), drawn as a stratified golden-ratio
    * sequence so that every run sends the same key mix. Per-key costs span
    * four orders of magnitude, so sampled keys would turn sampling noise
    * into latency noise; the hottest keys still appear in every run.
    */
  private def keyAt(i: Long, offset: Double): Int =
    1 + math.min(NKeys - 1, (((offset + i * 0.6180339887498949) % 1.0) * NKeys).toInt)
  private def randPerThread(salt: Long): Array[Random] = Array.tabulate(nproc)(t => new Random(seed * 7 + salt + t))

  private def request(k: Int, rnd: Random): Map[String, Any] = rowMap(k, frontier.get() + 1, nextValue(rnd, k))

  private val knownNpe: Throwable => Option[String] = {
    case e: NullPointerException if e.getStackTrace.exists(_.getMethodName.contains("preAggValue")) =>
      Some("pre-agg raw-edge scan meets a null value: RequestEngine.preAggValue -> num(null) throws NullPointerException")
    case _ => None
  }

  private def serveWith(r: Array[Random])(t: Int, i: Long): Boolean = {
    val k = keyAt(i, t.toDouble / nproc)
    Workload.serve(outcomes, knownNpe)(engine.request(request(k, r(t))))
  }

  def warmup(seconds: Double): Unit = {
    val ins = new Inserter(insertRate, 1); ins.start()
    val r = randPerThread(10)
    Load.closed(clients, seconds)(serveWith(r))
    ins.finish()
  }

  def measure(seconds: Double, out: Outcomes): Measured = {
    outcomes = out
    val ro = new Random(seed * 7 + 77)
    val r = randPerThread(20)
    val ins = new Inserter(insertRate, 2)
    val t0 = System.nanoTime()
    ins.start()
    val m = Workload.requestRounds(seconds, openRate, openWorkers, clients, out, s"$clients clients beside the inserter") { i =>
      val k = keyAt(i, 0.0)
      val req = ro.synchronized(request(k, ro))
      Workload.serve(outcomes, knownNpe)(engine.request(req))
    }(serveWith(r))
    val nIns = ins.finish()
    out.ok(ins.ok)
    m.copy(details = m.details ++ Seq(
      "insert_rows_per_s" -> Metric.single(nIns / ((System.nanoTime() - t0) / 1e9), "1/s",
        s"inserter offered $insertRate/s, $nIns rows"),
      "rows_stored_after_run" -> Metric.single((NRows + inserted.size).toDouble, "count", "loaded plus inserted")))
  }

  // ------------------------------------------------------------ reference

  def check(out: Outcomes): Unit = {
    val rnd = new Random(seed ^ 0x5eed)
    val z = new LocalGen.Zipf(NKeys, Alpha, seed + 4242)
    val ranks: Seq[Int] = ((1 to 5) ++ (1 to NKeys).filter(nullKey) ++ Seq.fill(200)(z.next())).distinct
    val want = ranks.toSet
    val byKey = scala.collection.mutable.HashMap.empty[Int, scala.collection.mutable.ArrayBuffer[(Long, Double)]]
    def collect(rows: KtvRows): Unit = {
      var i = 0
      while (i < rows.size) {
        val k = rows.key(i)
        if (want(k)) byKey.getOrElseUpdate(k, scala.collection.mutable.ArrayBuffer.empty) += ((rows.ts(i), rows.v(i)))
        i += 1
      }
    }
    collect(loaded); collect(inserted)
    val t = frontier.get() + 1
    ranks.foreach { k =>
      val reqV = nextValue(rnd, k)
      val req = rowMap(k, t, reqV)
      val inFrame = byKey.getOrElse(k, Nil).filter { case (ts, _) => ts >= t - WindowMs && ts <= t }
      val vals = (inFrame.map(_._2) :+ reqV).filterNot(_.isNaN)
      val nulls = inFrame.count(_._2.isNaN) // the engine counts the request row itself even when null
      val expected: Map[String, Any] = Map(
        "cnt" -> (inFrame.size + 1).toLong,
        "sum_v" -> (if (vals.isEmpty) null else vals.sum),
        "avg_v" -> (if (vals.isEmpty) null else vals.sum / vals.size),
        "min_v" -> (if (vals.isEmpty) null else vals.min),
        "max_v" -> (if (vals.isEmpty) null else vals.max))
      Check.request(engine, req, expected, out,
        known = (f, got, exp) => (f, got, exp) match {
          case ("cnt", g: java.lang.Long, e: java.lang.Long) if nulls > 0 && g + nulls == e =>
            Some("pre-agg count skips rows whose value is null (bucket cnt counts values, the raw path counts rows)")
          case _ => None
        },
        knownException = knownNpe)
    }
  }

  def layerInput: LayerInput = {
    val rnd = new Random(seed + 99)
    val t = frontier.get() + 1
    val sampled = (0 until 200).map(i => { val k = keyAt(i, 0.0); rowMap(k, t, nextValue(rnd, k)) })
    val sample = (0 until 200000).map(i => rowMap(loaded.key(i), loaded.ts(i), loaded.v(i)))
    val stream = sample.map(r => StreamTuple(0, r("k").asInstanceOf[String], r("ts").asInstanceOf[Long],
      Option(r("v")).map(_.asInstanceOf[Double]).getOrElse(0.0)))
    LayerInput(spec, tables, engine, preAgg, sampled, "t", "k", "v",
      r => s"h${r("ts").asInstanceOf[Long] / 3600000 % 4}",
      r => r.get("v").collect { case d: Double => java.lang.Boolean.valueOf(d > 50) }.orNull,
      sample, IndexedSeq("k" -> FieldType.StringT, "ts" -> FieldType.TimestampT, "v" -> FieldType.DoubleT),
      stream, WindowMs, hot = (keyNames(1), t), cold = (keyNames(NKeys - 1), t))
  }

  def describe: Seq[(String, String)] = Seq(
    "rows" -> s"$NRows loaded over ${NRows * StepMs / 3600000.0} h, zipf($Alpha) over $NKeys keys",
    "open_rate_per_s" -> openRate.toString,
    "insert_rate_per_s" -> insertRate.toString,
    "client_threads" -> s"open loop $openWorkers workers, closed loop $clients clients, each + 1 inserter",
    "null_keys" -> s"${(1 to NKeys).count(nullKey)} keys, ${NullShare * 100}% of their values null",
    "late_share" -> LateShare.toString)
}
