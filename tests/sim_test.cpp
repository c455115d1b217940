// Unit tests for the simulation kernel: clocks, stamp-latched FIFOs and
// registers, clock-domain-crossing FIFOs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/cdc_fifo.h"
#include "sim/fifo.h"
#include "sim/kernel.h"

namespace aethereal::sim {
namespace {

// A module that counts its own cycles.
class Counter : public Module {
 public:
  explicit Counter(std::string name) : Module(std::move(name)) {
    value_.Bind(this);
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
  clk->Register(&counter);
  kernel.RunCycles(clk, 10);
  EXPECT_EQ(clk->cycles(), 10);
  EXPECT_EQ(counter.Value(), 10);
}

TEST(Kernel, TwoClocksAdvanceProportionally) {
  Kernel kernel;
  Clock* fast = kernel.AddClock("fast", 1000);  // 1 GHz
  Clock* slow = kernel.AddClock("slow", 4000);  // 250 MHz
  Counter cf("cf"), cs("cs");
  fast->Register(&cf);
  slow->Register(&cs);
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
  a->Register(&ca);
  b->Register(&cb);
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
      : Module(std::move(name)), mine_(mine), theirs_(theirs) {
    mine_->Bind(this);
  }
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

TEST(FifoContract, PushVisibleNextEdgeNotThisOne) {
  for (EngineKind engine : kEngines) {
    for (bool reversed : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* clk = kernel.AddClock("clk", 1000);
      Fifo<int> fifo(4);
      Probe writer("w"), reader("r");
      fifo.Bind(&writer);
      std::vector<int> seen;
      writer.body = [&](Cycle t) {
        if (t != 2) return;
        fifo.Push(7);
        EXPECT_EQ(fifo.Size(), 0);  // the writer's own push is not visible
        EXPECT_FALSE(fifo.CanPop());
      };
      reader.body = [&](Cycle) { seen.push_back(fifo.Size()); };
      RegisterInOrder(clk, &writer, &reader, reversed);
      kernel.RunCycles(clk, 5);
      EXPECT_EQ(seen, (std::vector<int>{0, 0, 0, 1, 1})) << reversed;
      EXPECT_EQ(fifo.Peek(), 7);
    }
  }
}

TEST(FifoContract, SameEdgePushPopIsFlowThrough) {
  for (EngineKind engine : kEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* clk = kernel.AddClock("clk", 1000);
    Fifo<int> fifo(1);
    Probe owner("o");
    fifo.Bind(&owner);
    owner.body = [&](Cycle t) {
      if (t == 0) fifo.Push(1);
      if (t == 1) {
        EXPECT_FALSE(fifo.CanPush());  // full
        EXPECT_EQ(fifo.Pop(), 1);
        EXPECT_TRUE(fifo.CanPush());  // the same-edge pop frees the space
        fifo.Push(2);
        EXPECT_EQ(fifo.Size(), 1);  // still the edge-start occupancy
        EXPECT_FALSE(fifo.CanPop());
      }
      if (t == 2) {
        EXPECT_EQ(fifo.Size(), 1);
        EXPECT_EQ(fifo.Peek(), 2);
      }
    };
    clk->Register(&owner);
    kernel.RunCycles(clk, 3);
  }
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

TEST(FifoDeathTest, OverflowChecks) {
  Kernel kernel;
  Clock* clk = kernel.AddClock("clk", 1000);
  Probe owner("o");
  clk->Register(&owner);
  Fifo<int> fifo(1);
  fifo.Bind(&owner);
  fifo.Push(1);
  EXPECT_DEATH(fifo.Push(2), "overflow");
}

TEST(FifoDeathTest, UnderflowChecks) {
  Kernel kernel;
  Clock* clk = kernel.AddClock("clk", 1000);
  Probe owner("o");
  clk->Register(&owner);
  Fifo<int> fifo(1);
  fifo.Bind(&owner);
  EXPECT_DEATH(fifo.Pop(), "underflow");
  fifo.Push(1);
  EXPECT_DEATH(fifo.Pop(), "underflow");  // pushed this edge: not visible
}

TEST(FifoContract, PeekCountsStagedPops) {
  for (EngineKind engine : kEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* clk = kernel.AddClock("clk", 1000);
    Fifo<int> fifo(4);
    Probe owner("o");
    fifo.Bind(&owner);
    owner.body = [&](Cycle t) {
      if (t == 0) {
        fifo.Push(1);
        fifo.Push(2);
        fifo.Push(3);
      }
      if (t == 1) {
        EXPECT_EQ(fifo.Pop(), 1);
        EXPECT_EQ(fifo.Peek(0), 2);
        EXPECT_EQ(fifo.Peek(1), 3);
        EXPECT_EQ(fifo.Size(), 3);  // pops land at the next edge
      }
      if (t == 2) {
        EXPECT_EQ(fifo.Size(), 2);
      }
    };
    clk->Register(&owner);
    kernel.RunCycles(clk, 3);
  }
}

TEST(FifoContract, CapacityOrdering) {
  Kernel kernel;
  Clock* clk = kernel.AddClock("clk", 1000);
  Fifo<int> fifo(8);
  Probe owner("o");
  fifo.Bind(&owner);
  // Fill at even edges, drain at odd ones: the ring wraps every round.
  owner.body = [&](Cycle t) {
    const int round = static_cast<int>(t / 2);
    if (t % 2 == 0) {
      for (int i = 0; i < 8; ++i) fifo.Push(round * 8 + i);
      EXPECT_FALSE(fifo.CanPush());
    } else {
      for (int i = 0; i < 8; ++i) EXPECT_EQ(fifo.Pop(), round * 8 + i);
      EXPECT_FALSE(fifo.CanPop());
    }
  };
  clk->Register(&owner);
  kernel.RunCycles(clk, 6);
  EXPECT_EQ(fifo.Occupancy(), 0);
}

TEST(FifoContract, ObserverSizeIndependentOfOrder) {
  std::vector<std::vector<int>> runs;
  for (EngineKind engine : kEngines) {
    for (bool reversed : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* clk = kernel.AddClock("clk", 1000);
      Fifo<int> fifo(3);
      Probe owner("o"), observer("obs");
      fifo.Bind(&owner);
      // Two pushes per edge for three edges, then one pop per edge, with
      // one push alongside a pop at edge 4.
      owner.body = [&](Cycle t) {
        if (t < 3 && fifo.CanPush()) fifo.Push(static_cast<int>(t));
        if (t < 3 && fifo.CanPush()) fifo.Push(static_cast<int>(t));
        if (t >= 3 && fifo.CanPop()) (void)fifo.Pop();
        if (t == 4) fifo.Push(9);
      };
      std::vector<int> sizes;
      observer.body = [&](Cycle) { sizes.push_back(fifo.Size()); };
      RegisterInOrder(clk, &owner, &observer, reversed);
      kernel.RunCycles(clk, 9);
      runs.push_back(sizes);
    }
  }
  const std::vector<int> expected = {0, 2, 3, 3, 2, 2, 1, 0, 0};
  for (const auto& run : runs) EXPECT_EQ(run, expected);
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
      reg.Bind(&writer);
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

CdcTiming RunOneWord(EngineKind engine, Kernel& kernel, Clock* wclk,
                     Clock* rclk, bool reader_registered_first) {
  kernel.set_engine(engine);
  constexpr Cycle kPushEdge = 2;
  CdcFifo<int> fifo(1);
  Probe writer("w"), reader("r");
  fifo.Bind(&writer, &reader);
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
