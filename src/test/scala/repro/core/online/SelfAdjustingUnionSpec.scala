package repro.core.online

import org.scalatest.funsuite.AnyFunSuite
import repro.LocalGen
import repro.core.online.WindowUnionStream._

class SelfAdjustingUnionSpec extends AnyFunSuite {

  private def closeEnough(a: Array[Double], b: Array[Double]): Unit = {
    assert(a.length == b.length)
    a.indices.foreach { i =>
      assert(math.abs(a(i) - b(i)) < 1e-6, s"idx $i: ${a(i)} vs ${b(i)}")
    }
  }

  test("reference: window sum includes only the key's tuples in range") {
    val ts = IndexedSeq(
      StreamTuple(0, "a", 0, 1.0), StreamTuple(1, "a", 5, 2.0),
      StreamTuple(0, "b", 6, 10.0), StreamTuple(2, "a", 20, 4.0))
    val r = sequentialReference(ts, windowMs = 10)
    assert(r.toSeq == Seq(1.0, 3.0, 10.0, 4.0)) // last window [10,20] excludes ts 0 and 5
  }

  test("static union matches the sequential reference") {
    val tuples = LocalGen.unionStream(20000, nKeys = 50, seed = 21)
    val got = new StaticUnion(4, windowMs = 500).run(tuples)
    closeEnough(got, sequentialReference(tuples, 500))
  }

  test("self-adjusting union matches the reference without rebalances") {
    val tuples = LocalGen.unionStream(20000, nKeys = 50, seed = 22)
    val eng = new SelfAdjustingUnion(4, windowMs = 500, rebalanceEvery = Int.MaxValue)
    closeEnough(eng.run(tuples), sequentialReference(tuples, 500))
  }

  test("self-adjusting union stays exact across rebalances") {
    val tuples = LocalGen.unionStream(50000, nKeys = 20, alpha = 1.5, seed = 23)
    val eng = new SelfAdjustingUnion(4, windowMs = 2000, rebalanceEvery = 5000)
    val got = eng.run(tuples)
    closeEnough(got, sequentialReference(tuples, 2000))
  }

  test("rebalancer actually fires under a skewed key distribution") {
    val tuples = LocalGen.unionStream(60000, nKeys = 16, alpha = 2.0, seed = 24)
    val eng = new SelfAdjustingUnion(4, windowMs = 1000, rebalanceEvery = 2000)
    eng.run(tuples)
    assert(eng.rebalances > 0, "expected at least one rebalance on zipf(2.0) keys")
  }

  test("multi-table provenance: union aggregates across all tables") {
    // same key from 3 different tables — all must land in one window
    val ts = IndexedSeq(
      StreamTuple(0, "k", 0, 1.0), StreamTuple(1, "k", 1, 2.0), StreamTuple(2, "k", 2, 4.0))
    val got = new SelfAdjustingUnion(2, windowMs = 10, rebalanceEvery = Int.MaxValue).run(ts)
    assert(got.toSeq == Seq(1.0, 3.0, 7.0))
  }

  test("window boundary: tuples exactly windowMs apart are included") {
    val ts = IndexedSeq(StreamTuple(0, "k", 0, 1.0), StreamTuple(0, "k", 10, 2.0))
    val got = new StaticUnion(1, windowMs = 10).run(ts)
    assert(got.toSeq == Seq(1.0, 3.0))
  }

  test("tuples older than the window are evicted from the running sum") {
    val ts = IndexedSeq(
      StreamTuple(0, "k", 0, 1.0), StreamTuple(0, "k", 100, 2.0), StreamTuple(0, "k", 150, 4.0))
    val got = new SelfAdjustingUnion(1, windowMs = 60, rebalanceEvery = Int.MaxValue).run(ts)
    assert(got.toSeq == Seq(1.0, 2.0, 6.0))
  }

  test("single worker degenerate case works") {
    val tuples = LocalGen.unionStream(5000, nKeys = 10, seed = 25)
    closeEnough(new SelfAdjustingUnion(1, 300, 1000).run(tuples),
      sequentialReference(tuples, 300))
  }

  test("many workers with few keys still terminate and agree") {
    val tuples = LocalGen.unionStream(5000, nKeys = 3, seed = 26)
    closeEnough(new StaticUnion(8, 300).run(tuples), sequentialReference(tuples, 300))
  }

  test("empty and one-tuple streams terminate with the right output on both engines") {
    val one = IndexedSeq(StreamTuple(0, "k", 7, 2.5))
    for (eng <- Seq(() => new StaticUnion(3, 100), () => new SelfAdjustingUnion(3, 100, rebalanceEvery = 1))) {
      assert(eng().run(IndexedSeq.empty).isEmpty)
      val e = eng()
      assert(e.run(one).toSeq == Seq(2.5))
      assert(e.lastRun.tuplesPerWorker.sum == 1 && e.lastRun.parked == 0)
    }
  }

  test("hand-off stress: 8 workers, frequent rebalances, parked tuples chained exactly") {
    // integral values keep every sum exact, so agreement is bit-for-bit;
    // 30001 tuples is not a multiple of the hand-off batch size
    val tuples = LocalGen.unionStream(30001, nKeys = 8, alpha = 2.0, seed = 27)
      .map(t => t.copy(value = math.floor(t.value * 100)))
    val want = sequentialReference(tuples, 700)
    val eng = new SelfAdjustingUnion(8, windowMs = 700, rebalanceEvery = 100)
    assert(eng.run(tuples).sameElements(want))
    assert(eng.rebalances > 0)
    assert(eng.lastRun.tuplesPerWorker.size == 8 && eng.lastRun.tuplesPerWorker.sum == tuples.length)
    // keys move every few hundred tuples, so successors reach their new
    // worker before the old one is done (thousands per run)
    assert(eng.lastRun.parked > 0, "no tuple was parked: the park/chain path did not run")
  }

  test("KeyState retains no more than the last two windows of an in-order stream") {
    val windowMs = 1000L
    val n = 100000
    val rnd = new scala.util.Random(28)
    val st = new KeyState
    val ts = new Array[Long](n)
    val vs = new Array[Double](n)
    var oldest = 0     // first index inside [ts - 2 * windowMs, ts]
    var windowFrom = 0 // first index inside [ts - windowMs, ts]
    var sum = 0.0
    var peak = 0
    (0 until n).foreach { i =>
      // gaps of 0 (duplicate ts) to 39 ms; integral values keep sums exact
      ts(i) = (if (i == 0) 0L else ts(i - 1)) + rnd.nextInt(40)
      vs(i) = rnd.nextInt(1000).toDouble
      val got = st.addAndQuery(ts(i), vs(i), windowMs)
      sum += vs(i)
      while (ts(windowFrom) < ts(i) - windowMs) { sum -= vs(windowFrom); windowFrom += 1 }
      while (ts(oldest) < ts(i) - 2 * windowMs) oldest += 1
      assert(got == sum, s"tuple $i")
      assert(st.retained <= i + 1 - oldest, s"tuple $i retains ${st.retained}, the last two windows hold ${i + 1 - oldest}")
      peak = math.max(peak, st.retained)
    }
    assert(st.capacity <= 4 * peak + 16, s"capacity ${st.capacity} for at most $peak retained entries")
  }

  test("KeyState answers late tuples inside the horizon like the reference") {
    // window 10: horizon = lastTs - 20; a late tuple no older than
    // lastTs - 10 must be answered exactly
    val ts = IndexedSeq[(Long, Double)](
      0L -> 1, 4L -> 2, 9L -> 4, 15L -> 8, 30L -> 16, 40L -> 32, 45L -> 64,
      38L -> 128, // late: into the current frame, between 30 and 40
      40L -> 256, // late duplicate of the newest-but-one ts
      35L -> 512, // late: before 38
      50L -> 1024, 60L -> 2048, // in order again; 60 evicts below 40
      52L -> 4096, 60L -> 8192, 61L -> 16384)
    // then a random stream where a third of the tuples are up to one
    // window late, so late inserts also meet compaction and growth
    val rnd = new scala.util.Random(29)
    val random = Iterator.iterate(61L)(_ + rnd.nextInt(4)).drop(1).take(3000)
      .map(t => (if (rnd.nextInt(3) == 0) t - rnd.nextInt(11) else t) -> rnd.nextInt(100).toDouble)
    val tuples = (ts ++ random).map { case (t, v) => StreamTuple(0, "k", t, v) }
    val st = new KeyState
    val got = tuples.map(t => st.addAndQuery(t.ts, t.value, 10))
    assert(got == sequentialReference(tuples, 10).toSeq)
  }

  test("KeyState answers tuples older than the frame from the retained entries only") {
    val st = new KeyState
    Seq(0L -> 1.0, 10L -> 2.0, 50L -> 4.0).foreach { case (t, v) => st.addAndQuery(t, v, 10) }
    // lastTs = 50: frame [40, 50], horizon 30
    assert(st.addAndQuery(25, 8.0, 10) == 8.0) // older than the horizon: its own value, dropped
    assert(st.retained == 1)
    assert(st.addAndQuery(35, 16.0, 10) == 16.0) // retained, but before the frame
    assert(st.addAndQuery(32, 128.0, 10) == 128.0) // the same, sorted before 35
    assert(st.retained == 3)
    assert(st.addAndQuery(45, 32.0, 10) == 48.0) // late into the frame: 35 and 45
    assert(st.addAndQuery(55, 64.0, 10) == 100.0) // frame [45, 55]: 45, 50 and 55
    assert(st.retained == 4) // horizon 35 evicts 32 only
  }
}
