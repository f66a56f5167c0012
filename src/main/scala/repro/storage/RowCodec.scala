package repro.storage

import java.nio.{ByteBuffer, ByteOrder}
import java.nio.charset.StandardCharsets

/** Field types supported by the compact row format (§7.1 of the paper).
  *
  * Fixed-width fields are packed contiguously at their natural width (an
  * int costs 4 bytes, not an 8-byte UnsafeRow slot); strings are stored as
  * raw bytes addressed by a minimal-width offset table.
  */
sealed abstract class FieldType(val width: Int) extends Product with Serializable
object FieldType {
  case object BoolT      extends FieldType(1)
  case object SmallIntT  extends FieldType(2)
  case object IntT       extends FieldType(4)
  case object FloatT     extends FieldType(4)
  case object LongT      extends FieldType(8)
  case object DoubleT    extends FieldType(8)
  case object TimestampT extends FieldType(8) // epoch millis
  case object StringT    extends FieldType(-1)
}

/** Compact in-memory row encoding (paper §7.1, Figure 5).
  *
  * Layout: `header (6 B) | null bitmap | fixed-width fields | offset table | string bytes`.
  *
  *  - Header: field version (1 B), schema version (1 B), total row size (4 B).
  *  - Null bitmap: ceil(nFields / 8) bytes; bit i set means field i is NULL.
  *  - Fixed fields: packed at natural width, deterministic offsets computed
  *    once per schema (the paper's "more compact offset calculation").
  *  - Strings: an offset table whose entry width is 1/2/4 bytes depending on
  *    the total row size, holding each string's *end* offset relative to the
  *    string-data base; a string's length is the difference between its end
  *    offset and the previous one, so no per-string length field is stored.
  */
final class RowCodec(val schema: IndexedSeq[FieldType],
                     fieldVersion: Int = 1,
                     schemaVersion: Int = 1) extends Serializable {
  import FieldType._
  require(schema.nonEmpty, "empty schema")
  require(fieldVersion < 64 && schemaVersion < 64, "versions must fit the 6-byte header contract")

  val HeaderBytes = 6
  val bitmapBytes: Int = (schema.size + 7) / 8

  /** Offsets of fixed-width fields relative to the start of the fixed area. */
  private val fixedOffsets: IndexedSeq[Int] = {
    var off = 0
    schema.map {
      case StringT => -1
      case t       => val o = off; off += t.width; o
    }
  }
  val fixedBytes: Int = schema.collect { case t if t != StringT => t.width }.sum
  val nStrings: Int   = schema.count(_ == StringT)
  private val stringSlot: IndexedSeq[Int] = { // field index -> string ordinal
    var k = -1
    schema.map { t => if (t == StringT) { k += 1; k } else -1 }
  }

  private def offsetWidth(totalSize: Int): Int =
    if (totalSize < 0x100) 1 else if (totalSize < 0x10000) 2 else 4

  /** Encoded size of `values` without materialising the buffer. */
  def sizeOf(values: IndexedSeq[Any]): Int = {
    require(values.size == schema.size, s"arity ${values.size} != ${schema.size}")
    val strBytes = values.indices.collect {
      case i if schema(i) == StringT && values(i) != null =>
        values(i).asInstanceOf[String].getBytes(StandardCharsets.UTF_8).length
    }.sum
    // Offset width depends on total size which depends on offset width; the
    // fixpoint is reached in at most two iterations (widths only grow).
    var w = 1
    var total = 0
    var stable = false
    while (!stable) {
      total = HeaderBytes + bitmapBytes + fixedBytes + nStrings * w + strBytes
      val w2 = offsetWidth(total)
      if (w2 == w) stable = true else w = w2
    }
    total
  }

  /** Encode one row. Nulls are allowed for any field (bitmap-marked). */
  def encode(values: IndexedSeq[Any]): Array[Byte] = {
    val total = sizeOf(values)
    val w     = offsetWidth(total)
    val buf   = ByteBuffer.allocate(total).order(ByteOrder.LITTLE_ENDIAN)
    buf.put(fieldVersion.toByte)
    buf.put(schemaVersion.toByte)
    buf.putInt(total)
    val bitmapPos = buf.position()
    buf.position(bitmapPos + bitmapBytes) // bitmap filled below
    var bitmap = new Array[Byte](bitmapBytes)
    val fixedBase = buf.position()
    values.indices.foreach { i =>
      val v = values(i)
      if (v == null) bitmap(i / 8) = (bitmap(i / 8) | (1 << (i % 8)).toByte).toByte
      schema(i) match {
        case StringT => ()
        case t =>
          buf.position(fixedBase + fixedOffsets(i))
          t match {
            case BoolT      => buf.put(if (v != null && v.asInstanceOf[Boolean]) 1.toByte else 0.toByte)
            case SmallIntT  => buf.putShort(if (v == null) 0 else v.asInstanceOf[Short])
            case IntT       => buf.putInt(if (v == null) 0 else v.asInstanceOf[Int])
            case FloatT     => buf.putFloat(if (v == null) 0f else v.asInstanceOf[Float])
            case LongT      => buf.putLong(if (v == null) 0L else v.asInstanceOf[Long])
            case DoubleT    => buf.putDouble(if (v == null) 0d else v.asInstanceOf[Double])
            case TimestampT => buf.putLong(if (v == null) 0L else v.asInstanceOf[Long])
            case StringT    => ()
          }
      }
    }
    buf.position(fixedBase + fixedBytes)
    val offsetsBase = buf.position()
    val dataBase    = offsetsBase + nStrings * w
    var end = 0
    var slot = 0
    values.indices.foreach { i =>
      if (schema(i) == StringT) {
        val bytes =
          if (values(i) == null) Array.emptyByteArray
          else values(i).asInstanceOf[String].getBytes(StandardCharsets.UTF_8)
        buf.position(dataBase + end)
        buf.put(bytes)
        end += bytes.length
        buf.position(offsetsBase + slot * w)
        w match {
          case 1 => buf.put(end.toByte)
          case 2 => buf.putShort(end.toShort)
          case _ => buf.putInt(end)
        }
        slot += 1
      }
    }
    buf.position(bitmapPos)
    buf.put(bitmap)
    buf.array()
  }

  /** Decode a full row back to values (null for bitmap-marked fields). */
  def decode(bytes: Array[Byte]): IndexedSeq[Any] = {
    val r = new Reader(bytes)
    schema.indices.map(r.field)
  }

  /** Read a single field without decoding the rest of the row: a fixed
    * field is one read at its precomputed offset, a string two offset-table
    * reads plus its bytes.
    */
  def get(bytes: Array[Byte], i: Int): Any = new Reader(bytes).field(i)

  /** A validated view of one encoded row. */
  private final class Reader(bytes: Array[Byte]) {
    private val buf = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    require((buf.get(0) & 0xff) == fieldVersion && (buf.get(1) & 0xff) == schemaVersion,
      "version mismatch")
    private val total = buf.getInt(2)
    require(total == bytes.length, s"row size $total != buffer ${bytes.length}")
    private val w = offsetWidth(total)
    private val fixedBase   = HeaderBytes + bitmapBytes
    private val offsetsBase = fixedBase + fixedBytes
    private val dataBase    = offsetsBase + nStrings * w
    private def isNull(i: Int): Boolean = (buf.get(HeaderBytes + i / 8) & (1 << (i % 8))) != 0
    private def strEnd(slot: Int): Int = w match {
      case 1 => buf.get(offsetsBase + slot) & 0xff
      case 2 => buf.getShort(offsetsBase + slot * 2) & 0xffff
      case _ => buf.getInt(offsetsBase + slot * 4)
    }

    def field(i: Int): Any =
      if (isNull(i)) null
      else schema(i) match {
        case BoolT      => buf.get(fixedBase + fixedOffsets(i)) != 0
        case SmallIntT  => buf.getShort(fixedBase + fixedOffsets(i))
        case IntT       => buf.getInt(fixedBase + fixedOffsets(i))
        case FloatT     => buf.getFloat(fixedBase + fixedOffsets(i))
        case LongT      => buf.getLong(fixedBase + fixedOffsets(i))
        case DoubleT    => buf.getDouble(fixedBase + fixedOffsets(i))
        case TimestampT => buf.getLong(fixedBase + fixedOffsets(i))
        case StringT =>
          val slot  = stringSlot(i)
          val end   = strEnd(slot)
          val start = if (slot == 0) 0 else strEnd(slot - 1)
          new String(bytes, dataBase + start, end - start, StandardCharsets.UTF_8)
      }
  }
}

/** The paper's accounting model for a Spark (UnsafeRow-style) row (§7.1
  * "Memory Saving Example"): an 8-byte word per field, a null bitset of
  * 8 bytes per 64 fields, plus raw string bytes.
  */
object SparkRowSize {
  import FieldType._
  def estimate(schema: IndexedSeq[FieldType], values: IndexedSeq[Any]): Int = {
    val n = schema.size
    val nullSet = 8 * ((n + 63) / 64)
    val slots   = 8 * n
    val strData = schema.indices.collect {
      case i if schema(i) == StringT && values(i) != null =>
        values(i).asInstanceOf[String].getBytes(StandardCharsets.UTF_8).length
    }.sum
    nullSet + slots + strData
  }
}
