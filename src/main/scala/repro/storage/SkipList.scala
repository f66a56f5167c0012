package repro.storage

import java.util.concurrent.ThreadLocalRandom
import java.util.concurrent.atomic.{AtomicLong, AtomicReference, AtomicReferenceArray}
import scala.annotation.tailrec

/** Lock-free concurrent skiplist index (first layer of §7.2).
  *
  * Keys are inserted at most once (`putIfAbsent`); the structure supports
  * ordered iteration and ceiling lookups. Insertion links levels bottom-up
  * with CAS; readers never block. Keys are never removed (matching the
  * paper's key layer, where eviction happens inside the per-key time list).
  */
final class ConcurrentSkipIndex[K, V](implicit ord: Ordering[K]) {
  private val MaxLevel = 16

  private final class Node(val key: K, val value: V, val levels: Int) {
    val next = new AtomicReferenceArray[Node](levels)
  }

  // Head sentinel: key/value unused.
  private val head = new Node(null.asInstanceOf[K], null.asInstanceOf[V], MaxLevel)
  private val count = new AtomicLong(0)

  private def randomLevel(): Int = {
    var lvl = 1
    val rnd = ThreadLocalRandom.current()
    while (lvl < MaxLevel && rnd.nextInt(4) == 0) lvl += 1
    lvl
  }

  /** Predecessors AND the successors observed during the walk, per level.
    * The successor captured at walk time is what the insert CAS validates:
    * re-reading `pred.next` after the walk would race with a concurrent
    * insert of a smaller key slipping in behind the walk (an out-of-order
    * link the CAS could not detect).
    */
  private def findPreds(key: K): (Array[Node], Array[Node]) = {
    val preds = new Array[Node](MaxLevel)
    val succs = new Array[Node](MaxLevel)
    var cur = head
    var l = MaxLevel - 1
    while (l >= 0) {
      var nxt = cur.next.get(l)
      while (nxt != null && ord.lt(nxt.key, key)) { cur = nxt; nxt = cur.next.get(l) }
      preds(l) = cur
      succs(l) = nxt
      l -= 1
    }
    (preds, succs)
  }

  def get(key: K): Option[V] = {
    val n = findPreds(key)._2(0)
    if (n != null && ord.equiv(n.key, key)) Some(n.value) else None
  }

  /** Insert `key -> mk()` if absent; returns the (existing or new) value. */
  @tailrec def getOrInsert(key: K, mk: => V): V = {
    val (preds, succs) = findPreds(key)
    val at0 = succs(0)
    if (at0 != null && ord.equiv(at0.key, key)) at0.value
    else {
      val node = new Node(key, mk, randomLevel())
      node.next.set(0, at0)
      if (!preds(0).next.compareAndSet(0, at0, node)) getOrInsert(key, mk) // lost the race; retry
      else {
        count.incrementAndGet()
        // Link the upper levels; a failed CAS at level l re-walks. A node
        // is visible at level l only after all lower levels are linked.
        var l = 1
        while (l < node.levels) {
          var done = false
          while (!done) {
            val (ps, ss) = findPreds(key)
            val nxt = ss(l)
            if (nxt != null && ord.equiv(nxt.key, key)) done = true // already linked here
            else {
              node.next.set(l, nxt)
              done = ps(l).next.compareAndSet(l, nxt, node)
            }
          }
          l += 1
        }
        node.value
      }
    }
  }

  def size: Long = count.get()

  /** All entries in key order. */
  def iterator: Iterator[(K, V)] = new Iterator[(K, V)] {
    private var cur = head.next.get(0)
    def hasNext: Boolean = cur != null
    def next(): (K, V) = { val r = (cur.key, cur.value); cur = cur.next.get(0); r }
  }

  /** Entries with key >= `from`, in key order. */
  def iteratorFrom(from: K): Iterator[(K, V)] = new Iterator[(K, V)] {
    private var cur = findPreds(from)._2(0)
    def hasNext: Boolean = cur != null
    def next(): (K, V) = { val r = (cur.key, cur.value); cur = cur.next.get(0); r }
  }
}

/** One stored tuple: timestamp plus an opaque payload. The online tables
  * store slot-array rows (`OnlineTable`); the store itself does not look
  * inside the payload.
  */
final case class TsEntry[P](ts: Long, payload: P)

/** Second layer of §7.2: a lock-free singly-linked list of entries in
  * DESCENDING timestamp order (newest first — the common online access
  * pattern "latest rows for this key" is a head walk).
  *
  * Inserts CAS the predecessor's next pointer; TTL eviction batch-cuts the
  * stale tail with a single CAS (all expired nodes are contiguous at the
  * tail because the list is time-ordered).
  */
final class TimeList[P] {
  private final class Node(val entry: TsEntry[P]) {
    val next = new AtomicReference[Node](null)
  }
  private val head = new AtomicReference[Node](null)
  private val count = new AtomicLong(0)
  // Observed ts bounds, maintained monotonically on insert (CAS so racy
  // concurrent inserts can only widen them); scans outside
  // [minSeen, maxSeen] return empty without walking the list (a range
  // below the oldest entry would otherwise cost a full O(n) walk).
  private val minSeenRef = new AtomicLong(Long.MaxValue)
  private val maxSeenRef = new AtomicLong(Long.MinValue)
  private def minSeen: Long = minSeenRef.get()
  private def maxSeen: Long = maxSeenRef.get()

  @tailrec private def insertFrom(prev: Node, e: TsEntry[P]): Unit = {
    // Find insertion point: first node with ts <= e.ts (descending order).
    val start = if (prev == null) head.get() else prev.next.get()
    var p = prev
    var cur = start
    while (cur != null && cur.entry.ts > e.ts) { p = cur; cur = p.next.get() }
    val node = new Node(e)
    node.next.set(cur)
    val ok =
      if (p == null) head.compareAndSet(cur, node)
      else p.next.compareAndSet(cur, node)
    if (ok) { count.incrementAndGet(); () } else insertFrom(p, e)
  }

  def insert(e: TsEntry[P]): Unit = {
    minSeenRef.accumulateAndGet(e.ts, (a, b) => math.min(a, b))
    maxSeenRef.accumulateAndGet(e.ts, (a, b) => math.max(a, b))
    insertFrom(null, e)
  }

  /** Newest-first iterator. */
  def iterator: Iterator[TsEntry[P]] = new Iterator[TsEntry[P]] {
    private var cur = head.get()
    def hasNext: Boolean = cur != null
    def next(): TsEntry[P] = { val r = cur.entry; cur = cur.next.get(); r }
  }

  /** Entries with ts in [lo, hi], newest first (walks from the head and
    * stops at the first node older than `lo` — time-ordering makes range
    * scans prefix walks, the paper's point).
    */
  def scan(lo: Long, hi: Long): Iterator[TsEntry[P]] =
    if (hi < minSeen || lo > maxSeen) Iterator.empty
    else iterator.dropWhile(_.ts > hi).takeWhile(_.ts >= lo)

  /** Most recent entry with ts <= `atOrBefore` (LAST JOIN's lookup). */
  def latest(atOrBefore: Long = Long.MaxValue): Option[TsEntry[P]] =
    if (atOrBefore < minSeen) None
    else iterator.dropWhile(_.ts > atOrBefore).take(1).toSeq.headOption

  /** Batch-delete every entry with ts < cutoff (§7.2 "Out-of-Date Data
    * Removal"): walk to the boundary and cut the tail with one CAS.
    */
  def trimBefore(cutoff: Long): Int = {
    var removed = 0
    var done = false
    while (!done) {
      var p: Node = null
      var cur = head.get()
      while (cur != null && cur.entry.ts >= cutoff) { p = cur; cur = p.next.get() }
      if (cur == null) done = true
      else {
        var n = 0; var c = cur; while (c != null) { n += 1; c = c.next.get() }
        val ok = if (p == null) head.compareAndSet(cur, null) else p.next.compareAndSet(cur, null)
        if (ok) { removed += n; count.addAndGet(-n); done = true }
        // else a concurrent insert moved the boundary; retry
      }
    }
    removed
  }

  def size: Long = count.get()
}

/** The composed two-layer store: skiplist of keys, each holding a
  * time-ordered list of payloads. This is the online tablet's memtable.
  */
final class TimeSeriesStore[K, P](implicit ord: Ordering[K]) {
  private val index = new ConcurrentSkipIndex[K, TimeList[P]]

  def put(key: K, ts: Long, payload: P): Unit =
    index.getOrInsert(key, new TimeList[P]).insert(TsEntry(ts, payload))

  def scan(key: K, lo: Long, hi: Long): Iterator[TsEntry[P]] =
    index.get(key).map(_.scan(lo, hi)).getOrElse(Iterator.empty)

  def latest(key: K, atOrBefore: Long = Long.MaxValue): Option[TsEntry[P]] =
    index.get(key).flatMap(_.latest(atOrBefore))

  def keys: Iterator[K] = index.iterator.map(_._1)
  def nKeys: Long = index.size
  def nRows: Long = index.iterator.map(_._2.size).sum

  /** TTL eviction across all keys; returns entries removed. */
  def evictBefore(cutoff: Long): Long =
    index.iterator.map(_._2.trimBefore(cutoff).toLong).sum
}
