package repro.core.online

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class RequestEngineSpec extends AnyFunSuite {

  private def mkEngine(preAgg: Map[(String, String), PreAggTable] = Map.empty) = {
    val spec = FeatureSpec(
      primary = "actions",
      windows = Seq(
        WindowDef("w3s", "userid", "ts", 3000L, unionTables = Seq("orders")),
        WindowDef("w10s", "userid", "ts", 10000L)),
      features = Seq(
        Feature("cnt", FeatureFn.Count, "w3s"),
        Feature("price_sum", FeatureFn.Sum("price"), "w3s"),
        Feature("price_avg", FeatureFn.Avg("price"), "w10s"),
        Feature("top_cat", FeatureFn.TopNFreq("category", 1), "w3s"),
        Feature("dd", FeatureFn.Drawdown("price"), "w10s")),
      lastJoins = Seq(LastJoinDef("profile", "userid", "pts", Seq("segment"), "p_")))
    val tables = Map(
      "actions" -> new OnlineTable("userid", "ts"),
      "orders"  -> new OnlineTable("userid", "ts"),
      "profile" -> new OnlineTable("userid", "pts"))
    (new RequestEngine(spec, tables, preAgg), tables)
  }

  private def action(u: Long, ts: Long, price: Double, cat: String): Map[String, Any] =
    Map("userid" -> u, "ts" -> ts, "price" -> price, "category" -> cat)

  test("request over an empty store sees only the virtual tuple") {
    val (eng, _) = mkEngine()
    val out = eng.request(action(1, 1000, 9.0, "shoes"))
    assert(out("cnt") == 1L)
    assert(out("price_sum") == 9.0)
    assert(out("top_cat") == "shoes")
  }

  test("window frames include stored rows within range") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(1, 500, 10.0, "books"))
    eng.insert("actions", action(1, 900, 20.0, "shoes"))
    val out = eng.request(action(1, 1000, 30.0, "shoes"))
    assert(out("cnt") == 3L)
    assert(out("price_sum") == 60.0)
    assert(out("top_cat") == "shoes")
  }

  test("rows outside the window range are excluded") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(1, 100, 10.0, "books"))   // 3s window at ts=5000 excludes
    eng.insert("actions", action(1, 4000, 20.0, "shoes"))
    val out = eng.request(action(1, 5000, 1.0, "toys"))
    assert(out("cnt") == 2L)
    assert(out("price_sum") == 21.0)
  }

  test("union tables contribute to union windows only") {
    val (eng, _) = mkEngine()
    eng.insert("orders", action(1, 900, 100.0, "tech"))
    val out = eng.request(action(1, 1000, 1.0, "shoes"))
    assert(out("cnt") == 2L)          // w3s unions orders
    assert(out("price_sum") == 101.0)
    assert(out("price_avg") == 1.0)   // w10s does NOT union orders
  }

  test("keys are isolated across users") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(2, 900, 50.0, "x"))
    val out = eng.request(action(1, 1000, 1.0, "y"))
    assert(out("cnt") == 1L)
  }

  test("request tuples are not persisted (virtual insert)") {
    val (eng, _) = mkEngine()
    val a = eng.request(action(1, 1000, 5.0, "a"))
    val b = eng.request(action(1, 1000, 5.0, "a"))
    assert(a("cnt") == 1L && b("cnt") == 1L)
  }

  test("last join returns the latest at-or-before profile row") {
    val (eng, _) = mkEngine()
    eng.insert("profile", Map("userid" -> 1L, "pts" -> 100L, "segment" -> "bronze"))
    eng.insert("profile", Map("userid" -> 1L, "pts" -> 800L, "segment" -> "gold"))
    eng.insert("profile", Map("userid" -> 1L, "pts" -> 2000L, "segment" -> "vip"))
    val out = eng.request(action(1, 1000, 1.0, "c"))
    assert(out("p_segment") == "gold")
  }

  test("last join with no match yields null") {
    val (eng, _) = mkEngine()
    val out = eng.request(action(7, 1000, 1.0, "c"))
    assert(out("p_segment") == null)
  }

  test("drawdown sees rows oldest-to-newest") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(1, 100, 100.0, "a"))
    eng.insert("actions", action(1, 200, 60.0, "a"))
    val out = eng.request(action(1, 300, 120.0, "a"))
    assert(math.abs(out("dd").asInstanceOf[Double] - 0.4) < 1e-12)
  }

  test("pre-agg path equals the raw-scan path") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val (engPre, _) = mkEngine(Map(("w10s", "price") -> pa))
    val (engRaw, _) = mkEngine()
    val rnd = new scala.util.Random(8)
    (1 to 500).foreach { i =>
      val a = action(1, i * 17L, rnd.nextInt(100).toDouble, "c")
      engPre.insert("actions", a); engRaw.insert("actions", a)
    }
    val req = action(1, 9000, 5.0, "c")
    val (p, r) = (engPre.request(req), engRaw.request(req))
    assert(math.abs(p("price_avg").asInstanceOf[Double] - r("price_avg").asInstanceOf[Double]) < 1e-9)
  }

  test("pre-agg actually uses buckets for long windows") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val (eng, _) = mkEngine(Map(("w10s", "price") -> pa))
    (0 until 1000).foreach(i => eng.insert("actions", action(1, i * 10L, 1.0, "c")))
    eng.request(action(1, 9999, 1.0, "c"))
    assert(pa.lastQueryBuckets > 0)
    assert(pa.lastQueryRawRows < 1000, "bulk of the window must come from buckets")
  }

  test("null feature values propagate as nulls, not exceptions") {
    val (eng, _) = mkEngine()
    val out = eng.request(Map("userid" -> 1L, "ts" -> 1000L, "price" -> null, "category" -> null))
    assert(out("price_sum") == null)
    assert(out("cnt") == 1L)
  }

  test("pre-agg raw edges skip rows whose value is null") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val (engPre, _) = mkEngine(Map(("w10s", "price") -> pa))
    val (engRaw, _) = mkEngine()
    // At ts 9955 the buckets cover [0, 9900); [9900, 9955] is a raw edge.
    Seq(action(1, 9000, 4.0, "c"), action(1, 9910, 6.0, "c"),
        Map[String, Any]("userid" -> 1L, "ts" -> 9950L, "price" -> null, "category" -> "c"))
      .foreach { r => engPre.insert("actions", r); engRaw.insert("actions", r) }
    val req = action(1, 9955, 5.0, "c")
    val (p, r) = (engPre.request(req), engRaw.request(req))
    assert(pa.lastQueryRawRows == 1)
    assert(p("price_avg") == 5.0 && r("price_avg") == 5.0)
  }

  // ------------------------------------------------ store and plan semantics

  private def engineFor(spec: FeatureSpec, preAgg: Map[(String, String), PreAggTable] = Map.empty) = {
    val tables = Map(
      "actions" -> new OnlineTable("userid", "ts"),
      "orders"  -> new OnlineTable("userid", "ts"),
      "profile" -> new OnlineTable("userid", "pts"))
    (new RequestEngine(spec, tables, preAgg), tables)
  }

  test("a column absent from a row folds like a null one; the scan view tells them apart") {
    val (eng, tables) = mkEngine()
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 500L, "category" -> "a"))
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 600L, "price" -> null, "category" -> "a"))
    eng.insert("actions", action(1, 700, 10.0, "b"))
    val out = eng.request(action(1, 1000, 2.0, "b"))
    assert(out("cnt") == 4L)
    assert(out("price_sum") == 12.0 && out("price_avg") == 6.0)
    val rows = tables("actions").scan("1", 0, 1000).toMap
    assert(!rows(500L).contains("price") && rows(500L).get("price").isEmpty)
    assert(rows(600L).contains("price") && rows(600L)("price") == null)
    assert(rows(700L)("price") == 10.0)
    assert(rows(700L) == action(1, 700, 10.0, "b"))
  }

  test("Count counts rows whose value column is null") {
    val (eng, _) = mkEngine()
    (1 to 3).foreach(i => eng.insert("actions",
      Map("userid" -> 1L, "ts" -> (800L + i), "price" -> null, "category" -> null)))
    val out = eng.request(Map("userid" -> 1L, "ts" -> 1000L, "price" -> null, "category" -> null))
    assert(out("cnt") == 4L)
    assert(out("price_sum") == null && out("price_avg") == null && out("top_cat") == "")
  }

  test("a column first seen after other rows are stored is read where present") {
    val spec = FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", 10000L)),
      Seq(Feature("n", FeatureFn.Count, "w"), Feature("b_sum", FeatureFn.Sum("bonus"), "w"),
          Feature("b_max", FeatureFn.Max("bonus"), "w")))
    val (eng, tables) = engineFor(spec)
    assert(eng.request(Map("userid" -> 1L, "ts" -> 50L, "bonus" -> 2.0))("b_sum") == 2.0)
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 100L, "price" -> 1.0))
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 200L, "price" -> 2.0))
    assert(eng.request(Map("userid" -> 1L, "ts" -> 250L))("b_sum") == null)
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 300L, "price" -> 3.0, "bonus" -> 5.0))
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 400L, "price" -> 4.0))
    val out = eng.request(Map("userid" -> 1L, "ts" -> 1000L, "bonus" -> 1.0))
    assert(out("n") == 5L && out("b_sum") == 6.0 && out("b_max") == 5.0)
    val rows = tables("actions").scan("1", 0, 1000).toMap
    assert(rows(100L).get("bonus").isEmpty && rows(300L)("bonus") == 5.0)
  }

  test("a union-table column the primary table lacks is folded from the union rows") {
    val spec = FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", 3000L, Seq("orders"))),
      Seq(Feature("n", FeatureFn.Count, "w"), Feature("c_sum", FeatureFn.Sum("coupon"), "w"),
          Feature("c_top", FeatureFn.TopNFreq("shop", 1), "w")))
    val (eng, _) = engineFor(spec)
    eng.insert("actions", action(1, 500, 1.0, "a"))
    eng.insert("orders", Map("userid" -> 1L, "ts" -> 600L, "coupon" -> 3.0, "shop" -> "s1"))
    eng.insert("orders", Map("userid" -> 1L, "ts" -> 700L, "coupon" -> 4, "shop" -> "s1"))
    val out = eng.request(action(1, 1000, 1.0, "a"))
    assert(out("n") == 4L && out("c_sum") == 7.0 && out("c_top") == "s1")
  }

  test("duplicate timestamps across primary and union tables keep the documented frame order") {
    val spec = FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", 1000L, Seq("orders"))),
      Seq(Feature("dd", FeatureFn.Drawdown("price"), "w"), Feature("ew", FeatureFn.EwAvg("price", 0.5), "w")))
    val (eng, _) = engineFor(spec)
    eng.insert("actions", action(1, 100, 50.0, "a"))
    eng.insert("actions", action(1, 100, 80.0, "a"))
    eng.insert("orders", action(1, 100, 60.0, "a"))
    eng.insert("orders", action(1, 50, 100.0, "a"))
    eng.insert("actions", action(1, 200, 70.0, "a"))
    val out = eng.request(action(1, 200, 90.0, "a"))
    // A stable sort by ts of: primary rows in scan order (equal ts: the
    // later insert first), then union rows, then the request row.
    val order = Seq(100.0, 80.0, 50.0, 60.0, 70.0, 90.0)
    val dd = new functions.AggCore.DrawdownState
    val ew = new functions.AggCore.EwAvgState(0.5)
    order.foreach { v => dd.update(v); ew.update(v) }
    assert(out("dd") == dd.result && out("dd") == 0.5)
    assert(out("ew") == ew.result)
  }

  test("Int and Long values keep their types through the LAST JOIN and the scan view") {
    val spec = FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", 1000L)),
      Seq(Feature("n", FeatureFn.Count, "w")),
      Seq(LastJoinDef("profile", "userid", "pts", Seq("age", "visits", "missing"), "p_")))
    val (eng, tables) = engineFor(spec)
    eng.insert("profile", Map("userid" -> 1L, "pts" -> 100L, "age" -> 31, "visits" -> 7L))
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 200L, "qty" -> 3, "price" -> 2.5))
    val out = eng.request(Map("userid" -> 1L, "ts" -> 300L))
    assert(out("p_age").getClass == classOf[java.lang.Integer] && out("p_age") == 31)
    assert(out("p_visits").getClass == classOf[java.lang.Long] && out("p_visits") == 7L)
    assert(out("p_missing") == null)
    val (_, prof) = tables("profile").latest("1", 300L).get
    assert(prof("age").getClass == classOf[java.lang.Integer])
    val (ts, act) = tables("actions").scan("1", 0L, 300L).next()
    assert(ts == 200L)
    assert(act("qty").getClass == classOf[java.lang.Integer] && act("userid").getClass == classOf[java.lang.Long])
  }

  test("concurrent inserts and requests: nothing throws, and the settled store answers as a single-threaded one") {
    val spec = FeatureSpec("actions",
      Seq(WindowDef("wu", "userid", "ts", 400L, Seq("orders")), WindowDef("wl", "userid", "ts", 5000L)),
      Seq(Feature("n", FeatureFn.Count, "wu"), Feature("s", FeatureFn.Sum("price"), "wu"),
          Feature("dd", FeatureFn.Drawdown("price"), "wu"), Feature("ew", FeatureFn.EwAvg("price", 0.3), "wu"),
          Feature("top", FeatureFn.TopNFreq("category", 2), "wu"), Feature("x", FeatureFn.Sum("extra"), "wu"),
          Feature("ls", FeatureFn.Sum("price"), "wl"), Feature("lmax", FeatureFn.Max("price"), "wl"),
          Feature("lx", FeatureFn.Avg("extra"), "wl")),
      Seq(LastJoinDef("profile", "userid", "pts", Seq("segment"), "p_")))
    def preAgg() = Map(("wl", "price") -> new PreAggTable(Seq(100L, 1000L)))
    val (nKeys, nWriters, perWriter) = (4, 3, 2000)
    // Unique timestamps, integer-valued prices: the frame order and every
    // sum are independent of the interleaving.
    def write(w: Int, i: Int): (String, Map[String, Any]) = {
      val ts = i.toLong * nWriters + w
      val k = (i + w) % nKeys
      if (i % 40 == 7) "profile" -> Map("userid" -> k, "pts" -> ts, "segment" -> s"s$i")
      else {
        val base = Map[String, Any]("userid" -> k, "ts" -> ts, "category" -> s"c${i % 3}",
          "price" -> (if (i % 13 == 0) null else ((i * 7 + w) % 50).toDouble))
        // "extra" first appears halfway through, while requests run.
        val row = if (i >= perWriter / 2 && i % 3 == 0) base + ("extra" -> (i % 5)) else base
        (if (i % 4 == 3) "orders" else "actions") -> row
      }
    }
    def req(k: Int, ts: Long): Map[String, Any] =
      Map("userid" -> k, "ts" -> ts, "price" -> 1.0, "category" -> "c0", "extra" -> 2.0)

    val (eng, _) = engineFor(spec, preAgg())
    val errors = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]
    val served = new java.util.concurrent.atomic.AtomicLong
    val start = new java.util.concurrent.CountDownLatch(1)
    @volatile var writing = true
    def thread(body: => Unit): Thread = {
      val t = new Thread(() => try { start.await(); body } catch { case e: Throwable => errors.add(e) })
      t.start(); t
    }
    val writers = (0 until nWriters).map(w => thread((0 until perWriter).foreach { i =>
      val (table, row) = write(w, i); eng.insert(table, row)
      if (i % 100 == 0) Thread.`yield`()
    }))
    val readers = (0 until 2).map(r => thread {
      val rnd = new scala.util.Random(r)
      while (writing || served.get < 200) {
        eng.request(req(rnd.nextInt(nKeys), rnd.nextInt(perWriter * nWriters).toLong))
        served.incrementAndGet()
      }
    })
    start.countDown()
    writers.foreach(_.join())
    writing = false
    readers.foreach(_.join())
    assert(errors.isEmpty, errors.toString)
    assert(served.get >= 200)

    val (single, _) = engineFor(spec, preAgg())
    for (w <- 0 until nWriters; i <- 0 until perWriter) { val (t, r) = write(w, i); single.insert(t, r) }
    for (k <- 0 until nKeys; ts <- 0L to perWriter.toLong * nWriters by 150L) {
      val (a, b) = (eng.request(req(k, ts + 1)), single.request(req(k, ts + 1)))
      assert(a == b, s"key $k ts ${ts + 1}")
    }
  }
}
