// Unit tests for the simulation kernel: clocks, stamp-latched registers,
// clock-domain-crossing FIFOs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "sim/cdc_fifo.h"
#include "sim/register.h"
#include "sim/kernel.h"

namespace aethereal::sim {
namespace {

// A module that counts its own cycles.
class Counter : public Module {
 public:
  explicit Counter(std::string name) : Module(std::move(name)) {}
  /// Registers the counter on `clock`, which stamps its register.
  void RegisterOn(Clock* clock) {
    clock->Register(this);
    value_.Bind(clock);
  }
  void Evaluate() override { value_.Set(value_.Get() + 1); }
  int Value() const { return value_.Get(); }

 private:
  Register<int> value_{0};
};

TEST(Kernel, SingleClockCycles) {
  Kernel kernel;
  Clock* clk = kernel.AddClockMhz("clk", 500.0);
  EXPECT_EQ(clk->period_ps(), 2000);
  Counter counter("c");
  counter.RegisterOn(clk);
  kernel.RunCycles(clk, 10);
  EXPECT_EQ(clk->cycles(), 10);
  EXPECT_EQ(counter.Value(), 10);
}

TEST(Kernel, TwoClocksAdvanceProportionally) {
  Kernel kernel;
  Clock* fast = kernel.AddClock("fast", 1000);  // 1 GHz
  Clock* slow = kernel.AddClock("slow", 4000);  // 250 MHz
  Counter cf("cf"), cs("cs");
  cf.RegisterOn(fast);
  cs.RegisterOn(slow);
  kernel.RunUntil(40000);
  // Edges at t=0,1000,... inclusive of t=0 and t=40000.
  EXPECT_EQ(cf.Value(), 41);
  EXPECT_EQ(cs.Value(), 11);
}

TEST(Kernel, CoincidentEdgesFireTogether) {
  Kernel kernel;
  Clock* a = kernel.AddClock("a", 2000);
  Clock* b = kernel.AddClock("b", 3000);
  Counter ca("ca"), cb("cb");
  ca.RegisterOn(a);
  cb.RegisterOn(b);
  // First step handles t=0 where both fire.
  kernel.Step();
  EXPECT_EQ(ca.Value(), 1);
  EXPECT_EQ(cb.Value(), 1);
  // Next edges: a at 2000, b at 3000.
  kernel.Step();
  EXPECT_EQ(ca.Value(), 2);
  EXPECT_EQ(cb.Value(), 1);
}

// Two modules exchanging values through registers must see last-cycle state
// regardless of registration order.
class Swapper : public Module {
 public:
  Swapper(std::string name, Register<int>* mine, const Register<int>* theirs)
      : Module(std::move(name)), mine_(mine), theirs_(theirs) {}
  void Evaluate() override { mine_->Set(theirs_->Get() + 1); }

 private:
  Register<int>* mine_;
  const Register<int>* theirs_;
};

TEST(Kernel, RegisterOrderIndependence) {
  for (bool reversed : {false, true}) {
    Kernel kernel;
    Clock* clk = kernel.AddClock("clk", 1000);
    Register<int> ra(0), rb(100);
    ra.Bind(clk);
    rb.Bind(clk);
    Swapper a("a", &ra, &rb), b("b", &rb, &ra);
    if (reversed) {
      clk->Register(&b);
      clk->Register(&a);
    } else {
      clk->Register(&a);
      clk->Register(&b);
    }
    kernel.RunCycles(clk, 1);
    // Both read pre-edge values: ra := 100+1, rb := 0+1.
    EXPECT_EQ(ra.Get(), 101);
    EXPECT_EQ(rb.Get(), 1);
  }
}

// ---------------------------------------------------------------------------
// Contract tests on elements bound to a real Kernel/Clock. They pin the
// one-phase contract: an Evaluate() sees only state from earlier edges,
// whatever the module order, clock-id order or engine.
// ---------------------------------------------------------------------------

// A module whose Evaluate() runs a test-supplied body with the edge number.
class Probe : public Module {
 public:
  explicit Probe(std::string name) : Module(std::move(name)) {}
  void Evaluate() override {
    if (body) body(CycleCount());
  }
  std::function<void(Cycle)> body;
};

constexpr EngineKind kEngines[] = {EngineKind::kNaive, EngineKind::kSoa};

// Registers `first` then `second` on `clock`, or the other way round.
void RegisterInOrder(Clock* clock, Probe* first, Probe* second,
                     bool reversed) {
  clock->Register(reversed ? second : first);
  clock->Register(reversed ? first : second);
}

// A slot-granular module: Evaluate() matters only every `stride` cycles.
class Strided : public Module {
 public:
  Strided(std::string name, int stride) : Module(std::move(name)) {
    SetEvaluateStride(stride);
  }
  void Restride(int stride) { SetEvaluateStride(stride); }
  void Evaluate() override {}
};

TEST(KernelDeathTest, StridedModulesOfOneClockShareOneStride) {
  Kernel kernel;
  Clock* clk = kernel.AddClock("clk", 1000);
  Strided a("a", 3);
  Strided b("b", 3);
  clk->Register(&a);
  clk->Register(&b);
  Strided c("c", 2);
  EXPECT_DEATH(clk->Register(&c), "stride 2");
  EXPECT_DEATH(b.Restride(4), "stride 4");
}

// A register written on one clock and read on another: the reader at
// instant T sees the value of the last writer edge strictly before T,
// whichever clock has the lower id.
TEST(RegisterContract, CrossClockReadOrder) {
  for (EngineKind engine : kEngines) {
    for (bool writer_first : {true, false}) {
      Kernel kernel;
      kernel.set_engine(engine);
      constexpr Picoseconds kWriterPs = 2000;
      constexpr Picoseconds kReaderPs = 3000;
      Clock* wclk = nullptr;
      Clock* rclk = nullptr;
      if (writer_first) {
        wclk = kernel.AddClock("w", kWriterPs);
        rclk = kernel.AddClock("r", kReaderPs);
      } else {
        rclk = kernel.AddClock("r", kReaderPs);
        wclk = kernel.AddClock("w", kWriterPs);
      }
      Register<Cycle> reg(0);
      Probe writer("w"), reader("r");
      reg.Bind(wclk);
      writer.body = [&](Cycle t) { reg.Set(t + 1); };
      reader.body = [&](Cycle t) {
        const Picoseconds now = t * kReaderPs;
        const Cycle expected = (now + kWriterPs - 1) / kWriterPs;
        EXPECT_EQ(reg.Get(), expected)
            << "reader edge " << t << ", writer first " << writer_first;
      };
      wclk->Register(&writer);
      rclk->Register(&reader);
      kernel.RunUntil(60000);
    }
  }
}

// One word across a CdcFifo: the edges (of the reader, then of the writer)
// at which the word becomes readable and its space returns. The writer
// pushes at its edge `push_edge`; the reader pops as soon as it can.
struct CdcTiming {
  Cycle readable = -1;     // reader edge of the first nonzero ReaderSize()
  Cycle space_back = -1;   // writer edge at which CanPush() is true again
};

// The side of a CdcFifo bound to its bare clock instead of its probe (an
// NI port's side); the probe on that clock still pushes or pops.
enum class BareSide { kNone, kWriter, kReader };

CdcTiming RunOneWord(EngineKind engine, Kernel& kernel, Clock* wclk,
                     Clock* rclk, bool reader_registered_first,
                     BareSide bare = BareSide::kNone) {
  kernel.set_engine(engine);
  constexpr Cycle kPushEdge = 2;
  CdcFifo<int> fifo(1);
  Probe writer("w"), reader("r");
  fifo.Bind(bare == BareSide::kWriter ? CdcSide(wclk) : CdcSide(&writer),
            bare == BareSide::kReader ? CdcSide(rclk) : CdcSide(&reader));
  CdcTiming timing;
  bool popped = false;
  writer.body = [&](Cycle t) {
    if (t == kPushEdge) {
      fifo.Push(42);
      EXPECT_FALSE(fifo.CanPush());
    }
    if (popped && timing.space_back < 0 && fifo.CanPush()) {
      timing.space_back = t;
    }
  };
  reader.body = [&](Cycle t) {
    if (timing.readable < 0 && fifo.ReaderSize() > 0) {
      timing.readable = t;
      EXPECT_EQ(fifo.Pop(), 42);
      popped = true;
    }
  };
  if (reader_registered_first) {
    rclk->Register(&reader);
    wclk->Register(&writer);
  } else {
    wclk->Register(&writer);
    rclk->Register(&reader);
  }
  kernel.RunUntil(40 * std::max(wclk->period_ps(), rclk->period_ps()));
  return timing;
}

// On a shared clock the word is readable two edges after the push and its
// space returns two edges after the pop, plus one edge in the direction
// toward the side registered first (it synchronizes before the other side
// hands off within an edge).
TEST(CdcContract, SharedClockLatencyBothOrders) {
  for (EngineKind engine : kEngines) {
    for (bool reader_first : {false, true}) {
      Kernel kernel;
      Clock* clk = kernel.AddClock("clk", 1000);
      const CdcTiming t = RunOneWord(engine, kernel, clk, clk, reader_first);
      EXPECT_EQ(t.readable, reader_first ? 5 : 4) << reader_first;
      EXPECT_EQ(t.space_back, t.readable + (reader_first ? 2 : 3))
          << reader_first;
    }
  }
}

// Two coincident clocks (same period): the same two-edge synchronizer, plus
// one edge toward the clock with the lower id, whatever the module order.
TEST(CdcContract, CoincidentClocksLatencyBothIdOrders) {
  for (EngineKind engine : kEngines) {
    for (bool reader_clock_first : {false, true}) {
      for (bool reader_first : {false, true}) {
        Kernel kernel;
        Clock* wclk = nullptr;
        Clock* rclk = nullptr;
        if (reader_clock_first) {
          rclk = kernel.AddClock("r", 2000);
          wclk = kernel.AddClock("w", 2000);
        } else {
          wclk = kernel.AddClock("w", 2000);
          rclk = kernel.AddClock("r", 2000);
        }
        const CdcTiming t =
            RunOneWord(engine, kernel, wclk, rclk, reader_first);
        EXPECT_EQ(t.readable, reader_clock_first ? 5 : 4)
            << reader_clock_first << reader_first;
        EXPECT_EQ(t.space_back, t.readable + (reader_clock_first ? 2 : 3))
            << reader_clock_first << reader_first;
      }
    }
  }
}

// A side bound to its bare clock synchronizes after a module side on a
// shared clock, wherever the probe that drives it is registered: the
// timing of a module side registered last.
TEST(CdcContract, BareSideOnASharedClockSynchronizesLast) {
  for (EngineKind engine : kEngines) {
    for (bool bare_probe_first : {false, true}) {
      Kernel kernel;
      Clock* clk = kernel.AddClock("clk", 1000);
      // Bare writer: the reader's module goes first.
      const CdcTiming w = RunOneWord(engine, kernel, clk, clk,
                                     !bare_probe_first, BareSide::kWriter);
      EXPECT_EQ(w.readable, 5) << bare_probe_first;
      EXPECT_EQ(w.space_back, 7) << bare_probe_first;
    }
    for (bool bare_probe_first : {false, true}) {
      Kernel kernel;
      Clock* clk = kernel.AddClock("clk", 1000);
      // Bare reader: the writer's module goes first.
      const CdcTiming r = RunOneWord(engine, kernel, clk, clk,
                                     bare_probe_first, BareSide::kReader);
      EXPECT_EQ(r.readable, 4) << bare_probe_first;
      EXPECT_EQ(r.space_back, 7) << bare_probe_first;
    }
  }
}

// Across coincident clocks a bare side keeps the clock-id order.
TEST(CdcContract, BareSideOnCoincidentClocksBothIdOrders) {
  for (EngineKind engine : kEngines) {
    for (BareSide bare : {BareSide::kWriter, BareSide::kReader}) {
      for (bool reader_clock_first : {false, true}) {
        Kernel kernel;
        Clock* wclk = nullptr;
        Clock* rclk = nullptr;
        if (reader_clock_first) {
          rclk = kernel.AddClock("r", 2000);
          wclk = kernel.AddClock("w", 2000);
        } else {
          wclk = kernel.AddClock("w", 2000);
          rclk = kernel.AddClock("r", 2000);
        }
        const CdcTiming t =
            RunOneWord(engine, kernel, wclk, rclk, false, bare);
        const int side = static_cast<int>(bare);
        EXPECT_EQ(t.readable, reader_clock_first ? 5 : 4)
            << side << reader_clock_first;
        EXPECT_EQ(t.space_back, t.readable + (reader_clock_first ? 2 : 3))
            << side << reader_clock_first;
      }
    }
  }
}

// A bare side on a 2000 ps writer / 3000 ps reader pair: pushed at writer
// edge 2, readable at reader edge 4; popped there, which coincides with
// writer edge 6, and the space is back two writer edges on, plus one when
// the writer clock has the lower id.
TEST(CdcContract, BareSideOnA2000And3000PsPair) {
  for (EngineKind engine : kEngines) {
    for (BareSide bare : {BareSide::kWriter, BareSide::kReader}) {
      for (bool reader_clock_first : {false, true}) {
        Kernel kernel;
        Clock* wclk = nullptr;
        Clock* rclk = nullptr;
        if (reader_clock_first) {
          rclk = kernel.AddClock("r", 3000);
          wclk = kernel.AddClock("w", 2000);
        } else {
          wclk = kernel.AddClock("w", 2000);
          rclk = kernel.AddClock("r", 3000);
        }
        const CdcTiming t =
            RunOneWord(engine, kernel, wclk, rclk, false, bare);
        const int side = static_cast<int>(bare);
        EXPECT_EQ(t.readable, 4) << side << reader_clock_first;
        EXPECT_EQ(t.space_back, reader_clock_first ? 8 : 9)
            << side << reader_clock_first;
      }
    }
  }
}

// An observer reading ReaderSize() in the edge of a pop sees the size at
// the start of the edge, whether it runs before or after the popping
// reader (the ObsTap discipline).
TEST(CdcContract, ReaderSizeSameEdgeAsPopIndependentOfOrder) {
  for (EngineKind engine : kEngines) {
    for (bool observer_first : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* clk = kernel.AddClock("clk", 1000);
      CdcFifo<int> fifo(4);
      Probe writer("w"), reader("r"), observer("obs");
      fifo.Bind(&writer, &reader);
      writer.body = [&](Cycle t) {
        if (t < 3) fifo.Push(static_cast<int>(t));
      };
      reader.body = [&](Cycle t) {
        if (t == 6 || t == 7) {
          EXPECT_EQ(fifo.Pop(), static_cast<int>(t - 6));
        }
        if (t == 6) {
          EXPECT_EQ(fifo.ReaderAvailable(), 2);
        }
      };
      std::vector<int> sizes;
      observer.body = [&](Cycle) { sizes.push_back(fifo.ReaderSize()); };
      clk->Register(&writer);
      RegisterInOrder(clk, &reader, &observer, observer_first);
      kernel.RunCycles(clk, 9);
      EXPECT_EQ(sizes, (std::vector<int>{0, 0, 1, 2, 3, 3, 3, 2, 1}))
          << observer_first;
    }
  }
}

// A push made between steps, outside any Evaluate(), belongs to the
// writer's next edge, even when the reader's clock fires in between.
TEST(CdcContract, PushBetweenStepsBelongsToWritersNextEdge) {
  for (EngineKind engine : kEngines) {
    for (bool reader_clock_first : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* wclk = nullptr;
      Clock* rclk = nullptr;
      if (reader_clock_first) {
        rclk = kernel.AddClock("r", 1000);
        wclk = kernel.AddClock("w", 3000);
      } else {
        wclk = kernel.AddClock("w", 3000);
        rclk = kernel.AddClock("r", 1000);
      }
      CdcFifo<int> fifo(4);
      Probe writer("w"), reader("r");
      fifo.Bind(&writer, &reader);
      Cycle readable = -1;
      reader.body = [&](Cycle t) {
        if (readable < 0 && fifo.ReaderSize() > 0) readable = t;
      };
      wclk->Register(&writer);
      rclk->Register(&reader);
      kernel.Step();  // t=0; next edges: writer 3000, reader 1000
      fifo.Push(42);
      kernel.RunUntil(20000);
      // Reader edge 3 (t=3000) is the writer's next edge; two reader edges
      // on, plus one when the reader clock has the lower id.
      EXPECT_EQ(readable, reader_clock_first ? 6 : 5) << reader_clock_first;
    }
  }
}

// Extreme clock ratios (DESIGN.md §7.2): 1 MHz against 1000 MHz, each way.
// Per-edge ReaderSize() and WriterSpace() as each side's probe sees them at
// the start of its edge.
struct CdcTrace {
  std::vector<int> reader_size;   // by reader edge
  std::vector<int> writer_space;  // by writer edge
};

// A 1 MHz writer (clock id 0) pushes three words in its edge 1 (t = 1 us),
// one hand-off; the 1000 MHz reader's edge at that instant is 1000, so the
// words are readable from edge 1002. The reader pops them there
// (t = 1.002 us): the writer's first edge from then on is 2, so the space
// is back at writer edge 4.
TEST(CdcContract, OneMhzWriterToAGigahertzReader) {
  for (EngineKind engine : kEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* wclk = kernel.AddClock("w", 1'000'000);
    Clock* rclk = kernel.AddClock("r", 1000);
    CdcFifo<int> fifo(8);
    Probe writer("w"), reader("r");
    fifo.Bind(&writer, &reader);
    CdcTrace trace;
    std::vector<Cycle> stamps;
    std::vector<int> popped;
    writer.body = [&](Cycle t) {
      trace.writer_space.push_back(fifo.WriterSpace());
      if (t == 1) {
        for (int w = 0; w < 3; ++w) stamps.push_back(fifo.Push(w));
      }
    };
    reader.body = [&](Cycle) {
      trace.reader_size.push_back(fifo.ReaderSize());
      while (fifo.CanPop()) popped.push_back(fifo.Pop());
    };
    wclk->Register(&writer);
    rclk->Register(&reader);
    kernel.RunUntil(5'000'000);
    EXPECT_EQ(stamps, (std::vector<Cycle>{1002, kNoEdge, kNoEdge}));
    EXPECT_EQ(popped, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(trace.reader_size[1001], 0);
    EXPECT_EQ(trace.reader_size[1002], 3);
    EXPECT_EQ(trace.reader_size[1003], 0);
    EXPECT_EQ(trace.writer_space[2], 5);
    EXPECT_EQ(trace.writer_space[3], 5);
    EXPECT_EQ(trace.writer_space[4], 8);
  }
}

// A 1000 MHz writer pushes one word in each of its edges 1..5; the 1 MHz
// reader (clock id 0) is next at edge 1, so all five share stamp 3, one
// hand-off. The reader pops them at its edge 3 (t = 3 us), which is writer
// edge 3000 too; the reader clock has the lower id, so the writer sees the
// space two of its edges on, at 3002.
TEST(CdcContract, GigahertzWriterToAOneMhzReader) {
  for (EngineKind engine : kEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* rclk = kernel.AddClock("r", 1'000'000);
    Clock* wclk = kernel.AddClock("w", 1000);
    CdcFifo<int> fifo(8);
    Probe writer("w"), reader("r");
    fifo.Bind(&writer, &reader);
    CdcTrace trace;
    std::vector<Cycle> stamps;
    std::vector<int> popped;
    writer.body = [&](Cycle t) {
      trace.writer_space.push_back(fifo.WriterSpace());
      if (t >= 1 && t <= 5) stamps.push_back(fifo.Push(static_cast<int>(t)));
    };
    reader.body = [&](Cycle) {
      trace.reader_size.push_back(fifo.ReaderSize());
      while (fifo.CanPop()) popped.push_back(fifo.Pop());
    };
    rclk->Register(&reader);
    wclk->Register(&writer);
    kernel.RunUntil(5'000'000);
    EXPECT_EQ(stamps,
              (std::vector<Cycle>{3, kNoEdge, kNoEdge, kNoEdge, kNoEdge}));
    EXPECT_EQ(popped, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(trace.reader_size[2], 0);
    EXPECT_EQ(trace.reader_size[3], 5);
    EXPECT_EQ(trace.reader_size[4], 0);
    EXPECT_EQ(trace.writer_space[6], 3);
    EXPECT_EQ(trace.writer_space[3001], 3);
    EXPECT_EQ(trace.writer_space[3002], 8);
  }
}

// Words pushed between steps belong to the writer's next edge, and join
// the hand-off its own pushes make there. Slow writer: after the step at
// t = 0 its next edge is t = 1 us, reader edge 1000 on the lower-id reader
// clock, which fires then too: stamp 1000 + 2 + 1. Fast writer: its next
// edge t = 1 ns maps to the slow reader's edge 1: stamp 3.
TEST(CdcContract, BetweenStepBurstsAtExtremeRatios) {
  for (EngineKind engine : kEngines) {
    for (bool slow_writer : {true, false}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* rclk = kernel.AddClock("r", slow_writer ? 1000 : 1'000'000);
      Clock* wclk = kernel.AddClock("w", slow_writer ? 1'000'000 : 1000);
      CdcFifo<int> fifo(8);
      Probe writer("w"), reader("r");
      fifo.Bind(&writer, &reader);
      std::vector<int> sizes;
      std::vector<int> popped;
      writer.body = [&](Cycle t) {
        if (t >= 1 && t <= 3) fifo.Push(10 + static_cast<int>(t));
      };
      reader.body = [&](Cycle) {
        sizes.push_back(fifo.ReaderSize());
        while (fifo.CanPop()) popped.push_back(fifo.Pop());
      };
      rclk->Register(&reader);
      wclk->Register(&writer);
      kernel.Step();  // t = 0: both clocks fire
      const Cycle stamp = slow_writer ? 1003 : 3;
      EXPECT_EQ(fifo.Push(0), stamp);
      for (int w = 1; w < 4; ++w) EXPECT_EQ(fifo.Push(w), kNoEdge);
      kernel.RunUntil(5'000'000);
      // The slow writer's edge 1 is the between-step instant: its one push
      // joins the burst. The fast writer's edges 1..3 all map to stamp 3.
      const int joined = slow_writer ? 1 : 3;
      EXPECT_EQ(sizes[static_cast<std::size_t>(stamp) - 1], 0) << slow_writer;
      EXPECT_EQ(sizes[static_cast<std::size_t>(stamp)], 4 + joined)
          << slow_writer;
      EXPECT_EQ(popped, (std::vector<int>{0, 1, 2, 3, 11, 12, 13}))
          << slow_writer;
    }
  }
}

// Full-rate traffic each way for 20 slow edges: the writer pushes while it
// may, the reader pops all it can. Every word arrives once, in order, and
// the hand-offs and space returns in flight stay within the queue's inline
// rings (a ninth group in flight would CHECK-fail).
TEST(CdcContract, FullRateTrafficAtExtremeRatios) {
  for (EngineKind engine : kEngines) {
    for (bool slow_writer : {true, false}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* wclk = kernel.AddClock("w", slow_writer ? 1'000'000 : 1000);
      Clock* rclk = kernel.AddClock("r", slow_writer ? 1000 : 1'000'000);
      CdcFifo<int> fifo(16);
      Probe writer("w"), reader("r");
      fifo.Bind(&writer, &reader);
      int next = 0;
      std::vector<int> popped;
      writer.body = [&](Cycle) {
        while (fifo.CanPush()) fifo.Push(next++);
      };
      reader.body = [&](Cycle) {
        EXPECT_LE(fifo.ReaderSize(), fifo.capacity());
        while (fifo.CanPop()) popped.push_back(fifo.Pop());
      };
      wclk->Register(&writer);
      rclk->Register(&reader);
      kernel.RunUntil(20'000'000);
      ASSERT_GT(popped.size(), 16u) << slow_writer;
      for (std::size_t i = 0; i < popped.size(); ++i) {
        ASSERT_EQ(popped[i], static_cast<int>(i)) << slow_writer;
      }
    }
  }
}

// The unit cases below drive CdcFifo from modules on real clocks: a writer
// on a 2000 ps clock and a reader on a 3000 ps clock, so no edges but the
// first coincide.
TEST(CdcFifo, TwoEdgeSynchronizerLatency) {
  for (EngineKind engine : kEngines) {
    for (bool reader_clock_first : {false, true}) {
      Kernel kernel;
      Clock* wclk = nullptr;
      Clock* rclk = nullptr;
      if (reader_clock_first) {
        rclk = kernel.AddClock("r", 3000);
        wclk = kernel.AddClock("w", 2000);
      } else {
        wclk = kernel.AddClock("w", 2000);
        rclk = kernel.AddClock("r", 3000);
      }
      // Pushed at writer edge 2 (t=4000). The reader's next edge is 2
      // (t=6000), and the word is readable two reader edges after it.
      const CdcTiming t = RunOneWord(engine, kernel, wclk, rclk, false);
      EXPECT_EQ(t.readable, 4) << reader_clock_first;
    }
  }
}

TEST(CdcFifo, SpaceReturnsAfterWriterEdges) {
  for (EngineKind engine : kEngines) {
    for (bool reader_clock_first : {false, true}) {
      Kernel kernel;
      Clock* wclk = nullptr;
      Clock* rclk = nullptr;
      if (reader_clock_first) {
        rclk = kernel.AddClock("r", 3000);
        wclk = kernel.AddClock("w", 2000);
      } else {
        wclk = kernel.AddClock("w", 2000);
        rclk = kernel.AddClock("r", 3000);
      }
      // Popped at reader edge 4 (t=12000), which coincides with writer
      // edge 6. The space is back two writer edges after the pop, plus
      // one when the writer clock has the lower id.
      const CdcTiming t = RunOneWord(engine, kernel, wclk, rclk, true);
      EXPECT_EQ(t.readable, 4);
      EXPECT_EQ(t.space_back, reader_clock_first ? 8 : 9)
          << reader_clock_first;
    }
  }
}

// Records the edges it is evaluated on and parks after each one.
class Sleeper : public Module {
 public:
  explicit Sleeper(std::string name) : Module(std::move(name)) {}
  void Evaluate() override {
    seen.push_back(CycleCount());
    Park();
  }
  std::vector<Cycle> seen;
};

// Both read listeners of a queue (a shell and its IP) sleep through the
// crossing and wake at the edge the word becomes readable.
TEST(CdcFifo, WakesEveryReadListenerWhenAWordMatures) {
  Kernel kernel;
  Clock* clk = kernel.AddClock("clk", 1000);
  CdcFifo<int> fifo(4);
  Probe writer("w"), reader("r");
  Sleeper shell("shell"), ip("ip");
  fifo.Bind(&writer, &reader);
  fifo.AddReadListener(&shell);
  fifo.AddReadListener(&ip);
  writer.body = [&](Cycle t) {
    if (t == 2) fifo.Push(7);
  };
  clk->Register(&writer);
  clk->Register(&reader);
  clk->Register(&shell);
  clk->Register(&ip);
  kernel.RunCycles(clk, 8);
  // Parked after edge 0; woken at edge 4, two edges after the push.
  for (const Sleeper* s : {&shell, &ip}) {
    ASSERT_GE(s->seen.size(), 2u) << s->name();
    EXPECT_EQ(s->seen[0], 0) << s->name();
    EXPECT_EQ(s->seen[1], 4) << s->name();
  }
}

// ---------------------------------------------------------------------------
// Timer contract: a timer due at edge c unparks its module before the sweep
// of edge c (no hold), or at the next edge when c has already been swept.
// A Timed module does work at its due edges and sleeps in between; the
// soa engine must evaluate it at exactly the pinned edges, and the naive
// engine (which evaluates every edge) must see the same work.
// ---------------------------------------------------------------------------

constexpr Cycle kNoWork = std::numeric_limits<Cycle>::max();

class Timed : public Module {
 public:
  /// `next_due(t)` is the edge of the next work after work at edge `t`
  /// (kNoWork: none until rescheduled).
  Timed(std::string name, std::function<Cycle(Cycle)> next_due)
      : Module(std::move(name)), next_due_(std::move(next_due)) {}

  void Evaluate() override {
    const Cycle t = CycleCount();
    evaluated.push_back(t);
    if (t >= due_) {
      work.push_back(t);
      due_ = next_due_(t);
    }
    if (t < busy_until) return;  // stays awake
    if (due_ == kNoWork) {
      Park();
    } else {
      ParkUntil(due_);
    }
  }

  /// Moves the next work to `due` and asks for a wake there.
  void Reschedule(Cycle due) {
    due_ = due;
    WakeAt(due);
  }

  using Module::TimerAt;

  Cycle busy_until = 0;  // never parks at edges below this
  std::vector<Cycle> evaluated;
  std::vector<Cycle> work;

 private:
  std::function<Cycle(Cycle)> next_due_;
  Cycle due_ = 0;
};

/// Runs `script` on a fresh one-clock kernel with one Timed module, on both
/// engines; checks that the work matches and returns soa's evaluated edges.
std::vector<Cycle> TimedEdges(
    std::function<Cycle(Cycle)> next_due, Cycle cycles,
    const std::function<void(Kernel&, Clock*, Timed&)>& script = {}) {
  std::vector<Cycle> work[2];
  std::vector<Cycle> evaluated;
  for (EngineKind engine : kEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* clk = kernel.AddClock("clk", 1000);
    Timed m("m", next_due);
    clk->Register(&m);
    if (script) script(kernel, clk, m);
    kernel.RunCycles(clk, cycles - clk->cycles());
    const bool soa = engine == EngineKind::kSoa;
    work[soa ? 1 : 0] = m.work;
    if (soa) evaluated = m.evaluated;
  }
  EXPECT_EQ(work[0], work[1]) << "engines disagree on the work";
  return evaluated;
}

TEST(TimerContract, TimerManyRotationsAhead) {
  constexpr Cycle kFar = 10 * 256 + 37;
  const auto edges = TimedEdges(
      [](Cycle t) { return t == 0 ? kFar : kNoWork; }, kFar + 600);
  EXPECT_EQ(edges, (std::vector<Cycle>{0, kFar}));
}

// A timer due at the current edge, or before it, fires at the next edge.
TEST(TimerContract, TimerDueAtOrBeforeTheCurrentEdge) {
  const auto edges = TimedEdges(
      [](Cycle t) -> Cycle {
        switch (t) {
          case 0: return 0;   // due now
          case 1: return 4;
          case 4: return 4;   // due now
          case 5: return 2;   // already past
          default: return kNoWork;
        }
      },
      300);
  EXPECT_EQ(edges, (std::vector<Cycle>{0, 1, 4, 5, 6}));
}

// A wake added between steps, while parked, for a later edge, for the edge
// the next step sweeps, and for an edge already swept.
TEST(TimerContract, TimerAddedBetweenSteps) {
  const auto edges = TimedEdges(
      [](Cycle t) { return t < 1000 ? Cycle{1000} : kNoWork; }, 1100,
      [](Kernel& kernel, Clock* clk, Timed& m) {
        kernel.RunCycles(clk, 10);
        m.Reschedule(14);
        kernel.RunCycles(clk, 10);
        m.Reschedule(clk->cycles());
        kernel.RunCycles(clk, 10);
        m.Reschedule(clk->cycles() - 5);
      });
  EXPECT_EQ(edges, (std::vector<Cycle>{0, 14, 20, 30, 1000}));
}

// A second pending timer wakes the module after it parked again: one wake
// at edge 15 is left over from before the module moved its work to 40.
TEST(TimerContract, SecondTimerWakesAModuleThatParkedAgain) {
  const auto edges = TimedEdges(
      [](Cycle t) -> Cycle {
        if (t == 0) return 10;
        if (t == 10) return 40;
        return kNoWork;
      },
      400,
      [](Kernel& kernel, Clock* clk, Timed& m) {
        kernel.RunCycles(clk, 1);
        m.WakeAt(15);
      });
  EXPECT_EQ(edges, (std::vector<Cycle>{0, 10, 15, 40}));
}

// A timer that comes due while its module runs is spent: it does not fire
// again a wheel rotation later.
TEST(TimerContract, TimerOnAnAwakeModuleIsSpent) {
  const auto edges = TimedEdges(
      [](Cycle t) -> Cycle {
        if (t == 0) return 10;
        if (t == 10) return 300;
        return kNoWork;
      },
      700,
      [](Kernel& kernel, Clock* clk, Timed& m) {
        kernel.RunCycles(clk, 5);
        m.busy_until = 13;
        m.Wake();
      });
  EXPECT_EQ(edges,
            (std::vector<Cycle>{0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 300}));
}

// TimerAt puts no hold on a running module: it parks when its own work
// allows, and the timer brings it back at the stated edge.
TEST(TimerContract, TimerAtLeavesARunningModuleFreeToPark) {
  const auto edges = TimedEdges(
      [](Cycle t) { return t == 0 ? Cycle{20} : kNoWork; }, 300,
      [](Kernel& kernel, Clock* clk, Timed& m) {
        m.busy_until = 5;
        kernel.RunCycles(clk, 1);
        m.TimerAt(12);
      });
  EXPECT_EQ(edges, (std::vector<Cycle>{0, 1, 2, 3, 4, 5, 12, 20}));
}

// Each clock counts its own edges: a timer on a slower clock fires at that
// clock's edge, beside a module on a faster clock with its own timers.
TEST(TimerContract, TimerOnASlowerSecondClock) {
  std::vector<Cycle> work[2][2];
  for (EngineKind engine : kEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* fast = kernel.AddClock("fast", 1000);
    Clock* slow = kernel.AddClock("slow", 3000);
    Timed f("f", [](Cycle t) { return t + 7; });
    Timed s("s", [](Cycle t) { return t + 300; });
    fast->Register(&f);
    slow->Register(&s);
    kernel.RunCycles(slow, 700);
    const bool soa = engine == EngineKind::kSoa;
    work[soa][0] = f.work;
    work[soa][1] = s.work;
    if (soa) {
      EXPECT_EQ(s.evaluated, (std::vector<Cycle>{0, 300, 600}));
      EXPECT_EQ(f.evaluated, f.work);
      ASSERT_FALSE(f.evaluated.empty());
      EXPECT_EQ(f.evaluated.back(), 2093);  // fast edges: 0, 7, ..., < 2100
    }
  }
  EXPECT_EQ(work[0][0], work[1][0]);
  EXPECT_EQ(work[0][1], work[1][1]);
}

TEST(CdcFifoDeathTest, ReadListenersAreBoundedAndDistinct) {
  CdcFifo<int> fifo(4);
  Probe a("a"), b("b"), c("c");
  fifo.AddReadListener(&a);
  EXPECT_DEATH(fifo.AddReadListener(&a), "already listens");
  fifo.AddReadListener(&b);
  EXPECT_DEATH(fifo.AddReadListener(&c), "at most 2 read listeners");
}

TEST(CdcFifoDeathTest, ListenerOnAnotherClockThanABareReader) {
  Kernel kernel;
  Clock* wclk = kernel.AddClock("w", 1000);
  Clock* rclk = kernel.AddClock("r", 2000);
  CdcFifo<int> fifo(4);
  Probe writer("w"), listener("l");
  wclk->Register(&writer);
  wclk->Register(&listener);
  fifo.Bind(&writer, rclk);
  fifo.AddReadListener(&listener);
  EXPECT_DEATH(fifo.Push(1), "listens on another clock");
}

TEST(CdcFifo, OrderPreserved) {
  for (EngineKind engine : kEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* wclk = kernel.AddClock("w", 2000);
    Clock* rclk = kernel.AddClock("r", 3000);
    CdcFifo<int> fifo(16);
    Probe writer("w"), reader("r");
    fifo.Bind(&writer, &reader);
    writer.body = [&](Cycle t) {
      if (t < 5) fifo.Push(static_cast<int>(t));
    };
    std::vector<int> popped;
    reader.body = [&](Cycle t) {
      if (t < 8) return;  // let every word arrive first
      while (fifo.CanPop()) popped.push_back(fifo.Pop());
    };
    wclk->Register(&writer);
    rclk->Register(&reader);
    kernel.RunUntil(30000);
    EXPECT_EQ(popped, (std::vector<int>{0, 1, 2, 3, 4}));
  }
}

}  // namespace
}  // namespace aethereal::sim
