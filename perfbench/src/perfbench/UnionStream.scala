package perfbench

import scala.util.Random
import repro.LocalGen
import repro.core._
import repro.core.online.{OnlineTable, RequestEngine}
import repro.core.online.WindowUnionStream.{SelfAdjustingUnion, StreamTuple}
import repro.storage.FieldType

/** `union-stream`: the §9.3.2 shape. Several million tuples from 3 tables
  * over zipf(1.2) keys, answered with the 10 s window sum across all
  * tables by `SelfAdjustingUnion` with nproc - 1 workers (the submitting
  * thread keeps a core). Only routing, rebalancing and KeyState run here:
  * no store, no request engine.
  */
final class UnionStream(seed: Long, nproc: Int) extends Workload {
  val name = "union-stream"
  private val NTuples = 3000000
  private val NKeys = 100
  private val WindowMs = 10000L
  private val workers = math.max(1, nproc - 1)

  private var tuples: IndexedSeq[StreamTuple] = _
  private var expected: Array[Double] = _
  private var bytesPerTuple = 0.0
  private var lastEngine: SelfAdjustingUnion = _

  def setup(): Unit = {
    tuples = null; expected = null
    tuples = LocalGen.unionStream(NTuples, NKeys, nTables = 3, alpha = 1.2, seed = seed)
  }
  def dropState(): Unit = { tuples = null; expected = null }
  def rowsHeld: Long = NTuples.toLong

  def warmup(seconds: Double): Unit = {
    val part = tuples.take(300000)
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < end) new SelfAdjustingUnion(workers, WindowMs).run(part)
  }

  /** O(n) reference: per key, a two-pointer window over its own tuples
    * (arrival order is ts order) with a running sum.
    */
  private def reference(): Array[Double] = {
    final class Win { val ts = new scala.collection.mutable.ArrayDeque[Long]; val vs = new scala.collection.mutable.ArrayDeque[Double]; var sum = 0.0 }
    val wins = new java.util.HashMap[String, Win]()
    val out = new Array[Double](tuples.length)
    var i = 0
    while (i < tuples.length) {
      val t = tuples(i)
      val w = wins.computeIfAbsent(t.key, _ => new Win)
      w.ts.append(t.ts); w.vs.append(t.value); w.sum += t.value
      while (w.ts.head < t.ts - WindowMs) { w.ts.removeHead(); w.sum -= w.vs.removeHead() }
      out(i) = w.sum
      i += 1
    }
    out
  }

  /** Floating-point tolerance: both sides add and subtract the same values
    * per key in the same order, so they agree to rounding; 1e-9 relative
    * (absolute below 1) leaves room for a different but exact evaluation.
    */
  private def agree(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  private def checkRun(got: Array[Double], out: Outcomes): Unit = {
    var bad = 0L
    var first = -1
    var i = 0
    while (i < got.length) { if (!agree(got(i), expected(i))) { bad += 1; if (first < 0) first = i }; i += 1 }
    out.ok(got.length - bad)
    if (bad > 0)
      out.fail("mismatch: union window sum", s"tuple $first: engine ${got(first)} expected ${expected(first)}",
        knownDefect = false, n = bad)
  }

  def measure(seconds: Double, out: Outcomes): Measured = {
    expected = reference()
    val times = scala.collection.mutable.ArrayBuffer.empty[Double]
    val rebalances = scala.collection.mutable.ArrayBuffer.empty[Double]
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (times.size < 2 || System.nanoTime() < end) {
      lastEngine = new SelfAdjustingUnion(workers, WindowMs)
      val t0 = System.nanoTime()
      val got = lastEngine.run(tuples)
      times += (System.nanoTime() - t0) / 1e6
      rebalances += lastEngine.rebalances
      checkRun(got, out)
      if (times.size == 1) {
        // retained engine state after a full run, per tuple
        val alive = Jvm.usedAfterGc()
        lastEngine = null
        bytesPerTuple = (alive - Jvm.usedAfterGc()).toDouble / NTuples
      }
      lastEngine = null
    }
    val p50 = Metric.ofMedian(times, "ms", s"one run of the whole $NTuples-tuple stream, $workers workers")
    Measured(p50,
      Metric(NTuples / (p50.value / 1e3), "1/s", times.size, p50.spread, s"$NTuples tuples / median run time"),
      Seq("union_rebalances" -> Metric.ofMedian(rebalances, "count", "per run"),
          "union_runs" -> Metric.single(times.size.toDouble, "count", times.map(t => f"$t%.0f").mkString("ms: ", ", ", ""))))
  }

  override def storeBytesPerRow: Option[Double] = Some(bytesPerTuple)

  def check(out: Outcomes): Unit = {
    // The timed runs are each checked in full; the traced run checks one more.
    if (expected == null) {
      expected = reference()
      checkRun(new SelfAdjustingUnion(workers, WindowMs).run(tuples), out)
    }
  }

  def layerInput: LayerInput = {
    val prefix = 300000
    val rnd = new Random(seed + 99)
    val reqIdx = Iterator.continually(20000 + rnd.nextInt(prefix - 20000)).filter(i => tuples(i).table == 0)
      .distinct.take(300).toIndexedSeq
    val skip = reqIdx.toSet
    def row(t: StreamTuple): Map[String, Any] = Map("k" -> t.key, "ts" -> t.ts, "v" -> t.value, "table" -> t.table)
    val tables = (0 until 3).map(i => s"t$i" -> new OnlineTable("k", "ts")).toMap
    val spec = FeatureSpec("t0", Seq(WindowDef("w", "k", "ts", WindowMs, Seq("t1", "t2"))),
      Seq(Feature("sum_v", FeatureFn.Sum("v"), "w"), Feature("cnt", FeatureFn.Count, "w")))
    val engine = new RequestEngine(spec, tables)
    val sample = (0 until prefix).filterNot(skip).map(i => row(tuples(i)))
    sample.foreach(r => engine.insert(s"t${r("table")}", r))
    val last = tuples(prefix - 1).ts
    LayerInput(spec, tables, engine, Map.empty, reqIdx.map(i => row(tuples(i))), "t0", "k", "v",
      r => s"t${r("table")}", r => java.lang.Boolean.valueOf(r("v").asInstanceOf[Double] > 0.5),
      sample, IndexedSeq("table" -> FieldType.IntT, "k" -> FieldType.StringT, "ts" -> FieldType.TimestampT,
        "v" -> FieldType.DoubleT),
      tuples.take(prefix), WindowMs, hot = ("k1", last), cold = (s"k$NKeys", last))
  }

  def describe: Seq[(String, String)] = Seq(
    "tuples" -> s"$NTuples from 3 tables, zipf(1.2) over $NKeys keys, window $WindowMs ms",
    "workers" -> s"$workers + the submitting thread")
}
