package repro.core.online

import java.util.concurrent.ConcurrentHashMap
import scala.collection.immutable.{AbstractMap, HashMap}
import repro.storage.{TimeSeriesStore, TsEntry}

/** An online table: the tablet-server memtable of §7.2, a two-layer
  * skiplist store keyed by the index column and ordered by ts.
  *
  * Rows are slot arrays. The table keeps a column dictionary (name ->
  * slot) that only grows: a slot never changes once assigned, and new
  * names are appended under a lock. Each stored row is an `Array[AnyRef]`
  * indexed by slot holding the caller's own value objects, so value types
  * come back unchanged. A slot the row did not carry is empty (or past the
  * array's end); a column the row carried as null holds [[OnlineTable.NullValue]].
  * Storing `RowCodec` bytes instead waits for a declared table schema:
  * callers today put Int, Long and Double values into the same column.
  */
final class OnlineTable(val keyCol: String, val tsCol: String) {
  private val store = new TimeSeriesStore[String, Array[AnyRef]]
  private val slots = new ConcurrentHashMap[String, Integer]
  @volatile private var names = Array.empty[String] // slot -> column name

  /** The slot of `col`, or -1 if no stored row has carried it. */
  private[online] def slotOf(col: String): Int = {
    val s = slots.get(col)
    if (s == null) -1 else s
  }

  private def slotFor(col: String): Int = {
    val s = slots.get(col)
    if (s != null) s
    else synchronized {
      val again = slots.get(col)
      if (again != null) again
      else {
        val n = names.length
        names = names :+ col // published before the slot, so views can name it
        slots.put(col, n)
        n
      }
    }
  }

  /** Store one row: one dictionary lookup per field. */
  def put(row: Map[String, Any]): Unit = {
    val key = String.valueOf(row(keyCol))
    val ts  = asLong(row(tsCol))
    var vals  = new Array[AnyRef](names.length)
    var width = 0
    row.foreachEntry { (k, v) =>
      val s = slotFor(k)
      if (s >= vals.length) vals = java.util.Arrays.copyOf(vals, names.length)
      vals(s) = if (v == null) OnlineTable.NullValue else v.asInstanceOf[AnyRef]
      if (s >= width) width = s + 1
    }
    // Trailing slots of columns the row does not carry are not kept.
    if (width < vals.length) vals = java.util.Arrays.copyOf(vals, width)
    store.put(key, ts, vals)
  }

  private def asLong(v: Any): Long = v match {
    case l: Long => l
    case i: Int  => i.toLong
    case other   => other.toString.toLong
  }

  /** Stored slot rows with ts in [lo, hi], newest first. */
  private[online] def entries(key: String, lo: Long, hi: Long): Iterator[TsEntry[Array[AnyRef]]] =
    store.scan(key, lo, hi)

  def scan(key: String, lo: Long, hi: Long): Iterator[(Long, Map[String, Any])] =
    store.scan(key, lo, hi).map(e => (e.ts, new RowView(e.payload, names)))

  def latest(key: String, atOrBefore: Long): Option[(Long, Map[String, Any])] =
    store.latest(key, atOrBefore).map(e => (e.ts, new RowView(e.payload, names)))

  /** A read-only `Map` over one stored row, not a copy: `get` is one
    * dictionary lookup plus one array read. `updated`/`removed` copy.
    */
  private final class RowView(vals: Array[AnyRef], cols: Array[String]) extends AbstractMap[String, Any] {
    def get(k: String): Option[Any] = {
      val s = slotOf(k)
      if (s < 0 || s >= vals.length || vals(s) == null) None else Some(OnlineTable.value(vals, s))
    }
    def iterator: Iterator[(String, Any)] =
      Iterator.range(0, vals.length).filter(vals(_) != null).map(s => cols(s) -> OnlineTable.value(vals, s))
    def updated[V1 >: Any](k: String, v: V1): Map[String, V1] = HashMap.from(iterator).updated(k, v)
    def removed(k: String): Map[String, Any] = HashMap.from(iterator).removed(k)
  }
}

object OnlineTable {
  /** Stands in a slot row for a column the row carried as null. */
  private[online] object NullValue

  /** The value in `slot` of a stored row; null when the row carried the
    * column as null or did not carry it at all.
    */
  private[online] def value(row: Array[AnyRef], slot: Int): AnyRef =
    if (slot < 0 || slot >= row.length) null
    else {
      val v = row(slot)
      if (v eq NullValue) null else v
    }
}
