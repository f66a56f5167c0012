package repro.core.online

import java.util.concurrent.{ConcurrentHashMap, LinkedBlockingQueue}
import java.util.concurrent.atomic.AtomicIntegerArray
import scala.collection.mutable.ArrayBuffer

/** Multi-table window-union streaming executors (§5.2 and §9.3.2).
  *
  * The workload: an interleaved stream of tuples from several tables,
  * sharing a key space; every tuple must be answered with the running
  * window aggregate (here: sum over the last `windowMs`) across ALL
  * tables for its key — the online WINDOW UNION.
  *
  * Both engines share one threaded hand-off ([[ThreadedEngine]]): keys are
  * interned to dense ids, the submitting thread routes tuples to workers in
  * batches, and a per-key sequence gate keeps each key's tuples in input
  * order across workers. They differ in routing and per-tuple work.
  *
  * [[StaticUnion]] is the Flink-shaped baseline the paper describes:
  * static key-hash routing and no retained incremental state — each tuple
  * re-scans its key's buffered window (the paper's "has to re-sort the
  * data to identify the oldest entries", O(w) per tuple) and suffers
  * hot-key imbalance under zipf keys.
  *
  * [[SelfAdjustingUnion]] is the paper's engine: (1) on-the-fly load
  * balancing — the router periodically reassigns the hottest keys from
  * the most loaded worker to the least loaded; (2) incremental
  * subtract-and-evict — per-key buffer with a running sum, O(1) amortized
  * per tuple.
  */
object WindowUnionStream {

  /** One stream tuple; `table` only matters for provenance (the union
    * aggregates across tables by construction).
    */
  final case class StreamTuple(table: Int, key: String, ts: Long, value: Double)

  /** Golden single-threaded reference (used by correctness tests). */
  def sequentialReference(tuples: Seq[StreamTuple], windowMs: Long): Array[Double] = {
    val buf = scala.collection.mutable.HashMap.empty[String, ArrayBuffer[(Long, Double)]]
    tuples.zipWithIndex.map { case (t, _) =>
      val b = buf.getOrElseUpdate(t.key, ArrayBuffer.empty)
      b += ((t.ts, t.value))
      b.filter { case (ts, _) => ts >= t.ts - windowMs && ts <= t.ts }.map(_._2).sum
    }.toArray
  }

  /** Per-key incremental sliding-window state: ascending-ts primitive
    * arrays with a running sum over the current frame.
    *
    * Retention is bounded: an entry older than the horizon
    * `lastTs - 2 * windowMs` (`lastTs` = the newest ts seen) is evicted,
    * and the arrays are compacted in place when they fill (they grow only
    * while more than half of them is still retained).
    *
    * A tuple no older than `lastTs - windowMs` is answered exactly like
    * [[sequentialReference]], in order or late: its whole window lies in
    * the retained range. An older (late) tuple is answered from the
    * retained entries only, so entries older than the horizon are missing
    * from its sum; one older than the horizon itself is answered with its
    * own value and not retained. The engines feed each key's tuples in
    * input order, so late tuples occur only when the input's timestamps
    * are out of order within a key.
    *
    * Not thread-safe: the engines hand a key's state from one worker to
    * the next through the key's sequence gate.
    */
  final class KeyState {
    private var tsAt = new Array[Long](InitialCapacity)
    private var valueAt = new Array[Double](InitialCapacity)
    // Retained entries are [start, end); those in [start, frameFrom) have
    // been subtracted from the running sum (older than the frame).
    private var start = 0
    private var frameFrom = 0
    private var end = 0
    private var sumWindow = 0.0
    private var lastTs = Long.MinValue

    /** Entries currently retained. */
    private[online] def retained: Int = end - start
    private[online] def capacity: Int = tsAt.length

    def addAndQuery(ts: Long, v: Double, windowMs: Long): Double = {
      if (ts >= lastTs) {
        // fast path: in-order arrival — subtract-and-evict, O(1) amortized
        lastTs = ts
        insertAt(end, ts, v)
        sumWindow += v
        val cutoff = ts - windowMs
        while (frameFrom < end && tsAt(frameFrom) < cutoff) {
          sumWindow -= valueAt(frameFrom); frameFrom += 1
        }
        evictBefore(ts - 2 * windowMs)
        sumWindow
      } else if (ts < lastTs - 2 * windowMs) v
      else {
        // late arrival inside the horizon: insert and answer from the
        // retained entries
        val i = sortedPosition(ts)
        insertAt(i, ts, v)
        if (ts >= lastTs - windowMs) sumWindow += v // joins the current frame
        else frameFrom += 1 // landed before the frame; keep it there
        windowSum(ts, windowMs)
      }
    }

    /** O(w) rescan used by the static baseline (no retained sum). */
    def rescan(ts: Long, v: Double, windowMs: Long): Double = {
      if (ts >= lastTs) {
        lastTs = ts
        insertAt(end, ts, v)
        evictBefore(ts - 2 * windowMs)
      } else if (ts >= lastTs - 2 * windowMs) insertAt(sortedPosition(ts), ts, v)
      if (ts < lastTs - 2 * windowMs) v else windowSum(ts, windowMs)
    }

    private def windowSum(ts: Long, windowMs: Long): Double = {
      var s = 0.0
      var i = start
      while (i < end) {
        val t = tsAt(i)
        if (t >= ts - windowMs && t <= ts) s += valueAt(i)
        i += 1
      }
      s
    }

    /** Index after the last retained entry with a ts not above `ts`. */
    private def sortedPosition(ts: Long): Int = {
      var i = end
      while (i > start && tsAt(i - 1) > ts) i -= 1
      i
    }

    private def insertAt(i: Int, ts: Long, v: Double): Unit = {
      var at = i
      if (end == tsAt.length) at -= makeRoom()
      if (at < end) {
        System.arraycopy(tsAt, at, tsAt, at + 1, end - at)
        System.arraycopy(valueAt, at, valueAt, at + 1, end - at)
      }
      tsAt(at) = ts; valueAt(at) = v
      end += 1
    }

    /** Moves the retained entries to the front, into arrays twice as large
      * if they fill more than half of the current ones; returns the shift.
      */
    private def makeRoom(): Int = {
      val live = end - start
      val cap = if (live > tsAt.length / 2) tsAt.length * 2 else tsAt.length
      val ts2 = if (cap == tsAt.length) tsAt else new Array[Long](cap)
      val vs2 = if (cap == tsAt.length) valueAt else new Array[Double](cap)
      System.arraycopy(tsAt, start, ts2, 0, live)
      System.arraycopy(valueAt, start, vs2, 0, live)
      tsAt = ts2; valueAt = vs2
      val shift = start
      start = 0; frameFrom -= shift; end = live
      shift
    }

    private def evictBefore(horizon: Long): Unit = {
      while (start < end && tsAt(start) < horizon) start += 1
      if (frameFrom < start) frameFrom = start
    }
  }

  /** What one [[ThreadedEngine.run]] did: tuples handled by each worker
    * (parked tuples count for the worker that finally handled them), tuples
    * that arrived at a worker before their key's predecessor was done and
    * were parked, and load rebalances.
    */
  final case class RunStats(tuplesPerWorker: IndexedSeq[Long], parked: Long, rebalances: Int)

  private final val InitialCapacity = 16
  private final val BatchSize = 512
  private val EndOfStream = new Array[Int](0)
  // ints per key in the gate array: one 64-byte line holds the key's next
  // sequence number and its parked-tuple count
  private final val GateStride = 16

  sealed abstract class ThreadedEngine(nWorkers: Int) {
    require(nWorkers >= 1, s"nWorkers must be positive: $nWorkers")

    // per-key states of the last run, indexed by interned key id; kept
    // after the run, like a serving engine keeps its window state
    private var states: Array[KeyState] = Array.empty
    @volatile private var stats = RunStats(IndexedSeq.fill(nWorkers)(0L), 0L, 0)

    /** Counters of the last completed [[run]]. */
    def lastRun: RunStats = stats

    /** Key -> worker routing for one run, used by the submitting thread
      * only; `routing(key id)` starts at the key's hash home.
      */
    protected class Router(val routing: Array[Int]) {
      def route(key: Int): Int = routing(key)
      def rebalances: Int = 0
    }

    protected def router(homes: Array[Int]): Router = new Router(homes)

    protected def handle(state: KeyState, ts: Long, value: Double): Double

    /** Run the whole stream from empty state; returns per-tuple results in
      * input order.
      *
      * A serial pre-pass interns each key to a dense id and numbers every
      * tuple within its key. The submitting thread then routes tuples and
      * hands each worker their indices in batches.
      *
      * Per-key ordering across key handoffs: if a worker reaches tuple n of
      * a key before tuple n-1 has been processed (the predecessor is still
      * in the old worker's backlog after a rebalance), it parks the tuple
      * in a pending map instead of computing a wrong early answer;
      * whichever worker processes the predecessor then chain-processes the
      * parked successor. Ordering stays exact with zero spinning — the §5.2
      * contract without the throughput cliff of busy requeueing.
      */
    def run(tuples: IndexedSeq[StreamTuple]): Array[Double] = {
      val n = tuples.length
      val ids = new java.util.HashMap[String, Integer]()
      val homes = ArrayBuffer.empty[Int]
      val keyOf = new Array[Int](n)
      val seqOf = new Array[Int](n)
      val tsOf = new Array[Long](n)
      val valueOf = new Array[Double](n)
      var seen = new Array[Int](16)
      var i = 0
      val it = tuples.iterator
      while (it.hasNext) {
        val t = it.next()
        val key = t.key
        var id = ids.get(key)
        if (id == null) {
          id = Integer.valueOf(ids.size)
          ids.put(key, id)
          homes += math.floorMod(key.hashCode, nWorkers)
          if (homes.length > seen.length) seen = java.util.Arrays.copyOf(seen, seen.length * 2)
        }
        val k = id.intValue
        keyOf(i) = k
        seqOf(i) = seen(k)
        seen(k) += 1
        tsOf(i) = t.ts
        valueOf(i) = t.value
        i += 1
      }
      states = Array.fill(homes.length)(new KeyState)
      val handoff = new Handoff(keyOf, seqOf, tsOf, valueOf, states)
      val workers = Array.tabulate(nWorkers)(w => new Worker(handoff))
      val threads = workers.zipWithIndex.map { case (wk, w) =>
        val th = new Thread(wk, s"union-worker-$w")
        th.setDaemon(true); th.start(); th
      }

      val r = router(homes.toArray)
      val open = Array.fill(nWorkers)(new Array[Int](BatchSize))
      val filled = new Array[Int](nWorkers)
      def flush(w: Int): Unit = if (filled(w) > 0) {
        workers(w).queue.put(if (filled(w) == BatchSize) open(w) else java.util.Arrays.copyOf(open(w), filled(w)))
        open(w) = new Array[Int](BatchSize)
        filled(w) = 0
      }
      var moves = 0
      i = 0
      while (i < n) {
        val w = r.route(keyOf(i))
        if (r.rebalances != moves) {
          // a key moved: send the old worker its partial batch now, so the
          // new worker's parked tuples do not wait on an unfilled batch
          moves = r.rebalances
          (0 until nWorkers).foreach(flush)
        }
        open(w)(filled(w)) = i
        filled(w) += 1
        if (filled(w) == BatchSize) flush(w)
        i += 1
      }
      (0 until nWorkers).foreach(flush)
      workers.foreach(_.queue.put(EndOfStream))
      threads.foreach(_.join())
      workers.foreach(wk => if (wk.failure != null) throw wk.failure)
      // a parked tail tuple whose predecessor chain completed after the
      // final batch is impossible: chains fire synchronously inside
      // chain(), so by worker exit every tuple has been handled
      handoff.requireDrained()
      stats = RunStats(workers.map(_.handled).toIndexedSeq, workers.map(_.parked).sum, r.rebalances)
      handoff.results
    }

    /** Per-run shared state of the workers: results, per-key sequence
      * gates and the parked tuples.
      */
    private final class Handoff(keyOf: Array[Int], seqOf: Array[Int], tsOf: Array[Long], valueOf: Array[Double],
                                states: Array[KeyState]) {
      val results = new Array[Double](keyOf.length)
      // per key: [k * GateStride] = sequence number of the next tuple to
      // handle, [k * GateStride + 1] = tuples of the key parked right now
      private val gates = new AtomicIntegerArray(states.length * GateStride)
      // (key id << 32 | seq) -> parked tuple index awaiting its predecessor
      private val pending = new ConcurrentHashMap[java.lang.Long, Integer]()

      private def slot(k: Int, seq: Int): java.lang.Long = (k.toLong << 32) | (seq & 0xffffffffL)

      def ready(idx: Int): Boolean = gates.get(keyOf(idx) * GateStride) == seqOf(idx)

      /** Handles tuple `idx`, then any parked successors; returns how many. */
      def chain(idx0: Int): Int = {
        var idx = idx0
        var done = 0
        while (idx >= 0) {
          val k = keyOf(idx)
          results(idx) = handle(states(k), tsOf(idx), valueOf(idx))
          done += 1
          val next = seqOf(idx) + 1
          gates.set(k * GateStride, next)
          idx = if (gates.get(k * GateStride + 1) == 0) -1 else unpark(k, next)
        }
        done
      }

      /** Parks tuple `idx`, whose predecessor was not done yet; returns the
        * number of tuples handled if the predecessor finished meanwhile.
        * The put precedes the parked-count bump and the gate re-read, so
        * either this re-read sees the predecessor's gate update or the
        * predecessor's worker sees the count and takes the tuple.
        */
      def park(idx: Int): Int = {
        val k = keyOf(idx)
        val seq = seqOf(idx)
        pending.put(slot(k, seq), Integer.valueOf(idx))
        gates.incrementAndGet(k * GateStride + 1)
        if (gates.get(k * GateStride) != seq) 0
        else {
          val again = unpark(k, seq)
          if (again >= 0) chain(again) else 0
        }
      }

      private def unpark(k: Int, seq: Int): Int = {
        val idx = pending.remove(slot(k, seq))
        if (idx == null) -1
        else { gates.decrementAndGet(k * GateStride + 1); idx.intValue }
      }

      def requireDrained(): Unit = require(pending.isEmpty, s"unprocessed parked tuples: ${pending.size()}")
    }

    /** One worker thread's loop; its counters are its own and are read
      * after the thread has exited.
      */
    private final class Worker(handoff: Handoff) extends Runnable {
      val queue = new LinkedBlockingQueue[Array[Int]]()
      var handled = 0L
      var parked = 0L
      var failure: Throwable = _

      def run(): Unit = try {
        var batch = queue.take()
        while (batch ne EndOfStream) {
          var j = 0
          while (j < batch.length) {
            val idx = batch(j)
            if (handoff.ready(idx)) handled += handoff.chain(idx)
            else { parked += 1; handled += handoff.park(idx) }
            j += 1
          }
          batch = queue.take()
        }
      } catch { case t: Throwable => failure = t }
    }
  }

  /** Flink-style baseline: static hash routing + O(w) rescan per tuple. */
  final class StaticUnion(nWorkers: Int, windowMs: Long) extends ThreadedEngine(nWorkers) {
    protected def handle(state: KeyState, ts: Long, value: Double): Double = state.rescan(ts, value, windowMs)
    def runAll(ts: IndexedSeq[StreamTuple]): Array[Double] = run(ts)
  }

  /** The paper's engine: dynamic key->worker routing + subtract-and-evict. */
  final class SelfAdjustingUnion(nWorkers: Int, windowMs: Long,
                                 rebalanceEvery: Int = 20000) extends ThreadedEngine(nWorkers) {
    require(rebalanceEvery > 0, s"rebalanceEvery must be positive: $rebalanceEvery")

    /** Rebalances in the last run. */
    def rebalances: Int = lastRun.rebalances

    protected def handle(state: KeyState, ts: Long, value: Double): Double =
      state.addAndQuery(ts, value, windowMs)

    override protected def router(homes: Array[Int]): Router = new Rebalancer(homes)

    /** Counts each key's submitted tuples and, every `rebalanceEvery`
      * submissions, moves the hottest keys off the most loaded worker onto
      * the least loaded one (runtime-metric-driven, as in §5.2 step 1).
      */
    private final class Rebalancer(routing: Array[Int]) extends Router(routing) {
      private val keyLoad = new Array[Long](routing.length)
      private var sinceRebalance = 0
      private var moves = 0

      override def rebalances: Int = moves

      override def route(key: Int): Int = {
        keyLoad(key) += 1
        sinceRebalance += 1
        if (sinceRebalance == rebalanceEvery) { sinceRebalance = 0; rebalance() }
        routing(key)
      }

      private def rebalance(): Unit = {
        val loadPerWorker = new Array[Long](nWorkers)
        routing.indices.foreach(k => loadPerWorker(routing(k)) += keyLoad(k))
        val hot  = loadPerWorker.indices.maxBy(loadPerWorker)
        val cold = loadPerWorker.indices.minBy(loadPerWorker)
        if (hot != cold && loadPerWorker(hot) > 2 * math.max(1L, loadPerWorker(cold))) {
          // move the hot worker's heaviest keys until roughly even
          val hotKeys = routing.indices.filter(routing(_) == hot).sortBy(k => -keyLoad(k))
          var moved = 0L
          val target = (loadPerWorker(hot) - loadPerWorker(cold)) / 2
          hotKeys.takeWhile { k =>
            routing(k) = cold
            moved += keyLoad(k)
            moved < target
          }
          moves += 1
        }
      }
    }
  }
}
