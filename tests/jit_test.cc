// JIT execution battery: the native-codegen path (cpp_codegen -> jit_cache
// -> JitExecutor) must produce the interpreter's answers on every workload,
// warm-start from disk without re-invoking the toolchain, and degrade to
// the interpreter — never crash — on corrupt cache entries or a broken
// toolchain.
//
// Tolerance policy (see DESIGN.md "Native codegen & JIT kernel cache"): the
// emitted C++ replays the interpreter's exact per-element operation order
// and is built with -ffp-contract=off. On x86-64 without FMA codegen the
// host build cannot contract either, so outputs are bit-identical; on other
// targets we allow a tight relative tolerance.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/codegen/cpp_codegen.h"
#include "src/codegen/jit_cache.h"
#include "src/core/model_runner.h"
#include "src/core/spacefusion.h"
#include "src/exec/jit_executor.h"
#include "src/graph/builder.h"
#include "src/graph/models.h"
#include "src/graph/subgraphs.h"
#include "src/support/file_util.h"
#include "src/support/thread_pool.h"
#include "tests/random_graph.h"

namespace spacefusion {
namespace {

using testing_util::RandomGraph;

#if defined(__x86_64__) && !defined(__FMA__)
// Host build can't contract a*b+c into fma, and the jit flags forbid it:
// the native kernels replay the interpreter bit for bit.
constexpr float kParityTolerance = 0.0f;
#else
constexpr float kParityTolerance = 1e-4f;
#endif

std::string UniqueTestDir(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "sf-jit-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter++);
}

// One kernel cache shared by every parity test in the process: kernels are
// content-addressed, so reuse across tests is exactly the production
// behavior and keeps the battery from re-invoking the toolchain for
// identical shapes.
JitExecutor& SharedExecutor() {
  static JitExecutor* executor = []() {
    JitExecutorOptions options;
    options.cache.dir = UniqueTestDir("shared");
    return new JitExecutor(options);
  }();
  return *executor;
}

// The JIT flags without the host ISA: baseline x86-64 (SSE2) on x86-64
// hosts, where the kernel prelude's vectors are 4 floats wide.
constexpr const char* kBaselineJitFlags = "-O3 -std=c++17 -fPIC -shared -ffp-contract=off";

// SharedExecutor's twin that builds every kernel with kBaselineJitFlags, so
// the 4-float vector path stays pinned on a host with AVX2.
JitExecutor& BaselineExecutor() {
  static JitExecutor* executor = []() {
    JitExecutorOptions options;
    options.cache.dir = UniqueTestDir("baseline");
    options.cache.flags = kBaselineJitFlags;
    return new JitExecutor(options);
  }();
  return *executor;
}

StatusOr<CompiledSubprogram> CompileGraph(const Graph& g) {
  Compiler compiler{CompileOptions(AmpereA100())};
  return compiler.Compile(g);
}

// Runs `program` through the interpreter and through `executor`, and checks
// every graph output against both the interpreter and the unfused reference.
void ExpectProgramMatchesInterpreter(const ScheduledProgram& program, const Graph& g,
                                     std::uint64_t seed, JitExecutor& executor,
                                     float tolerance = kParityTolerance) {
  TensorEnv inputs = MakeGraphInputs(g, seed);
  TensorEnv interpreted;
  ASSERT_TRUE(RunScheduledProgram(program, g, inputs, &interpreted).ok());

  TensorEnv jitted;
  Status st = executor.RunProgram(program, g, inputs, &jitted);
  ASSERT_TRUE(st.ok()) << st.ToString();

  TensorEnv reference = inputs;
  RunReference(g, &reference);

  for (TensorId out : g.OutputIds()) {
    const size_t i = static_cast<size_t>(out);
    EXPECT_LE(MaxRelDiff(jitted[i], interpreted[i]), tolerance)
        << "jit diverges from interpreter on " << g.tensor(out).name << "\n"
        << g.ToString();
    EXPECT_LT(MaxRelDiff(jitted[i], reference[i]), 1e-2f)
        << "jit diverges from reference on " << g.tensor(out).name << "\n"
        << g.ToString();
  }
}

// Compiles `g` and checks its program with ExpectProgramMatchesInterpreter.
void ExpectJitMatchesInterpreter(const Graph& g, std::uint64_t seed, JitExecutor& executor,
                                 float tolerance = kParityTolerance) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << g.ToString() << "\n" << compiled.status().ToString();
  ExpectProgramMatchesInterpreter(compiled->program, g, seed, executor, tolerance);
}

// Every graph output of `got` has exactly the bits of `want`'s.
void ExpectBitIdenticalOutputs(const Graph& g, const TensorEnv& got, const TensorEnv& want) {
  for (TensorId out : g.OutputIds()) {
    const Tensor& a = got[static_cast<size_t>(out)];
    const Tensor& b = want[static_cast<size_t>(out)];
    ASSERT_TRUE(a.defined() && b.defined()) << g.tensor(out).name;
    ASSERT_EQ(a.shape(), b.shape()) << g.tensor(out).name;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.volume()) * sizeof(float)),
              0)
        << "outputs differ in " << g.tensor(out).name;
  }
}

class JitExecutorTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_F(JitExecutorTest, MhaMatchesInterpreter) {
  Graph g = BuildMha(/*batch_heads=*/4, /*seq_q=*/32, /*seq_kv=*/32, /*head_dim=*/16);
  ExpectJitMatchesInterpreter(g, /*seed=*/11, SharedExecutor());
  EXPECT_GT(SharedExecutor().stats().jit_runs, 0);
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
}

TEST_F(JitExecutorTest, MaskedMhaMatchesInterpreter) {
  Graph g = BuildMha(/*batch_heads=*/2, /*seq_q=*/24, /*seq_kv=*/24, /*head_dim=*/8,
                     /*masked=*/true);
  ExpectJitMatchesInterpreter(g, /*seed=*/12, SharedExecutor());
}

TEST_F(JitExecutorTest, LayerNormMatchesInterpreter) {
  Graph g = BuildLayerNormGraph(/*m=*/48, /*n=*/96);
  ExpectJitMatchesInterpreter(g, /*seed=*/13, SharedExecutor());
}

TEST_F(JitExecutorTest, MlpMatchesInterpreter) {
  Graph g = BuildMlp(/*num_layers=*/3, /*m=*/16, /*n=*/32, /*k=*/24);
  ExpectJitMatchesInterpreter(g, /*seed=*/14, SharedExecutor());
}

TEST_F(JitExecutorTest, FfnMatchesInterpreter) {
  Graph g = BuildFfn(/*tokens=*/32, /*hidden=*/48, /*ffn_dim=*/96, UnaryKind::kGelu,
                     NormKind::kLayerNorm);
  ExpectJitMatchesInterpreter(g, /*seed=*/15, SharedExecutor());
}

TEST_F(JitExecutorTest, SwigluFfnMatchesInterpreter) {
  Graph g = BuildSwigluFfn(/*tokens=*/24, /*hidden=*/32, /*ffn_dim=*/64);
  ExpectJitMatchesInterpreter(g, /*seed=*/16, SharedExecutor());
}

// Acceptance criterion: JitExecutor runs all 5 zoo models with outputs
// matching the interpreter within the documented tolerance.
TEST_F(JitExecutorTest, AllZooModelsMatchInterpreter) {
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/64));
    // Parity per unique subprogram graph: repetitions execute the same
    // kernels on different values, which adds runtime but no coverage.
    std::vector<std::string> seen;
    std::uint64_t seed = 100;
    for (const Subprogram& sub : model.subprograms) {
      std::string print = sub.graph.ToString();
      bool dup = false;
      for (const std::string& s : seen) {
        dup = dup || s == print;
      }
      if (dup) {
        continue;
      }
      seen.push_back(print);
      SCOPED_TRACE(std::string(ModelKindName(kind)) + " / " + sub.graph.name());
      ExpectJitMatchesInterpreter(sub.graph, seed++, SharedExecutor());
    }
  }
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
}

// A broken toolchain must not break execution: every kernel falls back to
// the interpreter and the program still produces reference answers. The
// failed build binds the kernel to the interpreter, so the toolchain runs
// once per kernel on the first call and never again, while every call
// still counts its fallbacks.
TEST_F(JitExecutorTest, BrokenToolchainFallsBackToInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("broken-toolchain");
  options.cache.compiler = "/bin/false";
  JitExecutor executor(options);

  Graph g = BuildLayerNormGraph(/*m=*/16, /*n=*/32);
  ExpectJitMatchesInterpreter(g, /*seed=*/21, executor, /*tolerance=*/0.0f);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::int64_t kernels = static_cast<std::int64_t>(compiled->program.kernels.size());
  EXPECT_EQ(executor.cache().stats().toolchain_invocations, kernels);
  EXPECT_EQ(executor.stats().fallbacks, kernels);

  // Two more calls, on a recompiled (equal) program: no toolchain run.
  TensorEnv inputs = MakeGraphInputs(g, /*seed=*/21);
  TensorEnv interpreted;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &interpreted).ok());
  for (int call = 2; call <= 3; ++call) {
    TensorEnv jitted;
    Status st = executor.RunProgram(compiled->program, g, inputs, &jitted);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectBitIdenticalOutputs(g, jitted, interpreted);
    EXPECT_EQ(executor.cache().stats().toolchain_invocations, kernels);
    EXPECT_EQ(executor.stats().fallbacks, call * kernels);
  }
  EXPECT_EQ(executor.stats().jit_runs, 0);
  EXPECT_GT(executor.cache().stats().failures, 0);
}

// Warm path: once every kernel is bound, a call neither emits nor consults
// the kernel cache — no memory hit, disk hit or build — and only launches.
TEST_F(JitExecutorTest, WarmCallsSkipEmissionAndCacheLookup) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("warm-path");
  JitExecutor executor(options);

  Graph g = BuildMha(/*batch_heads=*/2, /*seq_q=*/16, /*seq_kv=*/32, /*head_dim=*/8);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::int64_t kernels = static_cast<std::int64_t>(compiled->program.kernels.size());
  TensorEnv inputs = MakeGraphInputs(g, /*seed=*/22);
  TensorEnv first;
  ASSERT_TRUE(executor.RunProgram(compiled->program, g, inputs, &first).ok());
  const JitKernelCache::Stats bound = executor.cache().stats();
  EXPECT_EQ(bound.builds, kernels);
  EXPECT_EQ(executor.stats().jit_runs, kernels);

  for (int call = 0; call < 20; ++call) {
    TensorEnv again;
    Status st = executor.RunProgram(compiled->program, g, inputs, &again);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectBitIdenticalOutputs(g, again, first);
  }
  const JitKernelCache::Stats warm = executor.cache().stats();
  EXPECT_EQ(warm.memory_hits, bound.memory_hits);
  EXPECT_EQ(warm.disk_hits, bound.disk_hits);
  EXPECT_EQ(warm.builds, bound.builds);
  EXPECT_EQ(warm.toolchain_invocations, bound.toolchain_invocations);
  EXPECT_EQ(executor.stats().jit_runs, 21 * kernels);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

// JIT binding memo under concurrency: threads binding the same kernels at
// once all get correct answers, and the kernel cache builds each kernel
// exactly once.
TEST_F(JitExecutorTest, ConcurrentRunsBindEachKernelOnce) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("concurrent");
  JitExecutor executor(options);

  Graph g = BuildAttnOut(/*tokens=*/8, /*hidden=*/768, NormKind::kLayerNorm);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::int64_t kernels = static_cast<std::int64_t>(compiled->program.kernels.size());
  ASSERT_GT(kernels, 1);
  TensorEnv inputs = MakeGraphInputs(g, /*seed=*/23);
  TensorEnv interpreted;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &interpreted).ok());

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 3;
  std::vector<std::vector<TensorEnv>> outputs(kThreads,
                                              std::vector<TensorEnv>(kCallsPerThread));
  std::vector<Status> statuses(kThreads * kCallsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kCallsPerThread; ++c) {
        statuses[static_cast<size_t>(t * kCallsPerThread + c)] = executor.RunProgram(
            compiled->program, g, inputs, &outputs[static_cast<size_t>(t)][static_cast<size_t>(c)]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const Status& st : statuses) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  for (const std::vector<TensorEnv>& per_thread : outputs) {
    for (const TensorEnv& out : per_thread) {
      ExpectBitIdenticalOutputs(g, out, interpreted);
    }
  }
  EXPECT_EQ(executor.cache().stats().builds, kernels);
  EXPECT_EQ(executor.stats().jit_runs, kThreads * kCallsPerThread * kernels);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

// Differential corpus: random graphs, one executor, jit vs interpreter.
class JitDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_P(JitDifferentialTest, JitMatchesInterpreterOnRandomGraphs) {
  // Seed stride disjoint from fuzz_test's and differential_test's corpora.
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 40503001ULL + 17;
  Graph g = RandomGraph(seed);
  ASSERT_TRUE(g.Validate().ok());
  ExpectJitMatchesInterpreter(g, seed ^ 0xA5, SharedExecutor());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Register-tiled matmuls: a matmul with M >= 8 rows runs sf_matmul (register
// tiles of 8 accumulator vectors over B packed in 128-column groups of
// 16-column, 256-deep panels), smaller ones the row loops. Both must replay
// the interpreter's per-element order under the host's vector width and
// under the baseline one.

// One matmul, C = op(A) * op(B): A is [a_batch.., M, K] and B [b_batch.., K,
// N], each stored transposed when its flag is set.
Graph BuildMatMulGraph(std::int64_t m, std::int64_t n, std::int64_t k, bool ta, bool tb,
                       std::vector<std::int64_t> a_dims = {},
                       std::vector<std::int64_t> b_dims = {}) {
  GraphBuilder b("matmul_" + std::to_string(m) + "x" + std::to_string(n) + "x" +
                 std::to_string(k));
  a_dims.insert(a_dims.end(), {ta ? k : m, ta ? m : k});
  b_dims.insert(b_dims.end(), {tb ? n : k, tb ? k : n});
  TensorId a = b.Input("a", Shape(a_dims));
  TensorId w = b.Weight("b", Shape(b_dims));
  b.MarkOutput(b.MatMul(a, w, ta, tb, "c"));
  return b.Build();
}

// Compiles `g` with temporal slicing switched off, so that each kernel runs
// in one pass and every matmul contracts its whole K.
ScheduledProgram SinglePassProgram(const Graph& g) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  ScheduledProgram program = compiled->program;
  for (SmgSchedule& kernel : program.kernels) {
    ScheduleConfig config;
    for (const DimSlice& slice : kernel.spatial) {
      config.spatial_blocks.push_back(slice.block);
    }
    kernel.ApplyConfig(config);
  }
  return program;
}

// Every kernel of `program` calls sf_matmul exactly when `tiled`.
void ExpectTilePath(const ScheduledProgram& program, bool tiled) {
  for (const SmgSchedule& schedule : program.kernels) {
    StatusOr<CppKernel> kernel = EmitCppKernel(schedule);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    EXPECT_EQ(kernel->source.find("sf_matmul<") != std::string::npos, tiled)
        << kernel->source;
  }
}

// ExpectProgramMatchesInterpreter under the host JIT flags and under the
// baseline ones.
void ExpectMatchesInterpreterAtBothWidths(const ScheduledProgram& program, const Graph& g,
                                          std::uint64_t seed) {
  for (JitExecutor* executor : {&SharedExecutor(), &BaselineExecutor()}) {
    SCOPED_TRACE(executor->cache().dir());
    ExpectProgramMatchesInterpreter(program, g, seed, *executor);
  }
}

class TileMatMulTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

// M on both sides of the tile threshold and with every row remainder, K
// below, at and across the 256-deep k block, N with a 4-column tail panel.
TEST_F(TileMatMulTest, MatchesInterpreterAcrossTileRemainders) {
  std::uint64_t seed = 60;
  for (std::int64_t m : {1, 4, 7, 8, 9, 33}) {
    for (std::int64_t k : {64, 256, 300, 3072}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k));
      const Graph g = BuildMatMulGraph(m, /*n=*/20, k, false, false);
      const ScheduledProgram program = SinglePassProgram(g);
      ExpectTilePath(program, m >= 8);
      ExpectMatchesInterpreterAtBothWidths(program, g, seed++);
    }
  }
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
  EXPECT_EQ(BaselineExecutor().stats().fallbacks, 0);
}

TEST_F(TileMatMulTest, MatchesInterpreterForEveryTranspose) {
  std::uint64_t seed = 90;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      SCOPED_TRACE(std::string("ta=") + (ta ? "1" : "0") + " tb=" + (tb ? "1" : "0"));
      const Graph g = BuildMatMulGraph(/*m=*/9, /*n=*/20, /*k=*/300, ta, tb);
      const ScheduledProgram program = SinglePassProgram(g);
      ExpectTilePath(program, true);
      ExpectMatchesInterpreterAtBothWidths(program, g, seed++);
    }
  }
}

TEST_F(TileMatMulTest, MatchesInterpreterWithBroadcastBatch) {
  const std::vector<std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>> batches = {
      {{3}, {}}, {{2, 1}, {3}}};
  std::uint64_t seed = 95;
  for (const auto& [a_batch, b_batch] : batches) {
    const Graph g = BuildMatMulGraph(/*m=*/12, /*n=*/20, /*k=*/40, false, true, a_batch, b_batch);
    SCOPED_TRACE(g.ToString());
    const ScheduledProgram program = SinglePassProgram(g);
    ExpectTilePath(program, true);
    ExpectMatchesInterpreterAtBothWidths(program, g, seed++);
  }
}

// Full 128-column groups and a leftover group (276 = 2 * 128 + 20: one full
// panel plus a 4-column tail), every transpose (a transposed B packs with
// SBJ != 1), every row remainder of the 4-row and the 2-row tile, and a
// broadcast batch.
TEST_F(TileMatMulTest, GroupedPanelsMatchInterpreter) {
  const std::int64_t ms[] = {8, 9, 10, 11, 33};
  std::uint64_t seed = 200;
  int i = 0;
  for (std::int64_t n : {128, 256 + 20, 3072}) {
    for (std::int64_t k : {256, 300, 768}) {
      const std::int64_t m = ms[i % 5];
      const bool ta = (i % 4) / 2 == 1;
      const bool tb = i % 2 == 1;
      ++i;
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) + " k=" +
                   std::to_string(k) + " ta=" + std::to_string(ta) + " tb=" + std::to_string(tb));
      const Graph g = BuildMatMulGraph(m, n, k, ta, tb);
      const ScheduledProgram program = SinglePassProgram(g);
      ExpectTilePath(program, true);
      ExpectMatchesInterpreterAtBothWidths(program, g, seed++);
    }
  }
  const Graph g = BuildMatMulGraph(/*m=*/9, /*n=*/256 + 20, /*k=*/300, false, true, {2, 1}, {3});
  SCOPED_TRACE(g.ToString());
  const ScheduledProgram program = SinglePassProgram(g);
  ExpectTilePath(program, true);
  ExpectMatchesInterpreterAtBothWidths(program, g, seed);
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
  EXPECT_EQ(BaselineExecutor().stats().fallbacks, 0);
}

// Temporally sliced MHA: probs x V is a running sum over the key dim, so
// each intra-block's tile writes its partial product into loc_o.
TEST_F(TileMatMulTest, TemporalMhaAccumulatesTileIntoRunningSum) {
  const Graph g = BuildMha(/*batch_heads=*/2, /*seq_q=*/16, /*seq_kv=*/64, /*head_dim=*/8);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ScheduledProgram program = compiled->program;
  SmgSchedule& kernel = program.kernels[0];
  ASSERT_TRUE(kernel.has_temporal);
  ScheduleConfig config;
  for (const DimSlice& slice : kernel.spatial) {
    config.spatial_blocks.push_back(slice.block);
  }
  config.temporal_step = 16;
  config.use_temporal = true;
  kernel.ApplyConfig(config);
  ASSERT_GT(kernel.NumIntraBlocks(), 1);

  StatusOr<CppKernel> emitted = EmitCppKernel(kernel);
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  EXPECT_NE(emitted->source.find("sf_matmul<"), std::string::npos);
  EXPECT_NE(emitted->source.find("&loc_o"), std::string::npos) << emitted->source;
  ExpectMatchesInterpreterAtBothWidths(program, g, /*seed=*/97);
}

// Compiles `source` the way the JIT does, with `flags` plus `extra` (which
// redirects the output, e.g. "-S"), and returns what the compiler wrote to
// stderr.
std::string CompileKernelSource(const std::string& source, const std::string& flags,
                                const std::string& extra, const std::string& out_path) {
  const std::string dir = UniqueTestDir("compile");
  EXPECT_TRUE(AtomicWriteFile(dir + "/kernel.cc", source).ok());
  const char* env = std::getenv("SPACEFUSION_CXX");
  const std::string compiler = (env != nullptr && env[0] != '\0') ? env : "c++";
  const std::string cmd = compiler + " " + flags + " " + extra + " -o \"" + out_path + "\" \"" +
                          dir + "/kernel.cc\" 2> \"" + dir + "/stderr.txt\"";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  StatusOr<std::string> report = ReadFileToString(dir + "/stderr.txt");
  return report.ok() ? report.value() : "";
}

// The host JIT flags first, then the baseline ones (the same on a host
// without AVX2).
std::vector<std::string> JitFlagSets() { return {JitCacheOptions().flags, kBaselineJitFlags}; }

// The tile's accumulators live in registers for the whole k loop: built as
// the JIT builds it, to assembly, the k loop of the full-width tile
// (sf_mm_tile<4, 16, ...> with AVX, <2, 16, ...> without) multiplies and
// adds packed vectors and has no stack operand, so nothing spills.
TEST_F(TileMatMulTest, TileKLoopKeepsAccumulatorsInRegisters) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "checks x86-64 assembly";
#endif
  const ScheduledProgram program = SinglePassProgram(BuildMatMulGraph(32, 48, 64, false, false));
  StatusOr<CppKernel> kernel = EmitCppKernel(program.kernels[0]);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  for (const std::string& flags : JitFlagSets()) {
    SCOPED_TRACE(flags);
    const std::string asm_path = UniqueTestDir("tile-asm") + ".s";
    CompileKernelSource(kernel->source, flags, "-S", asm_path);
    StatusOr<std::string> assembly = ReadFileToString(asm_path);
    ASSERT_TRUE(assembly.ok());
    const bool avx = flags.find("-mavx") != std::string::npos;
    const std::string tile = avx ? "10sf_mm_tileILi4ELi16E" : "10sf_mm_tileILi2ELi16E";

    // The tile's instructions, from its label to the end of its body.
    std::vector<std::string> body;
    std::istringstream lines(assembly.value());
    bool in_tile = false;
    for (std::string l; std::getline(lines, l);) {
      if (!in_tile) {
        in_tile = l.rfind("_Z", 0) == 0 && l.find(tile) != std::string::npos && l.back() == ':';
      } else if (l.find(".cfi_endproc") != std::string::npos) {
        break;
      } else {
        body.push_back(l);
      }
    }
    ASSERT_FALSE(body.empty()) << tile << " not in\n" << assembly.value();

    // The k loop: the span from a label to the branch back to it that holds
    // the multiplies.
    std::vector<std::string> loop;
    for (size_t end = 0; end < body.size() && loop.empty(); ++end) {
      if (body[end].rfind("\tj", 0) != 0) {
        continue;
      }
      const std::string label = body[end].substr(body[end].rfind('\t') + 1) + ":";
      for (size_t begin = 0; begin < end; ++begin) {
        if (body[begin] == label) {
          std::vector<std::string> span(body.begin() + static_cast<long>(begin),
                                        body.begin() + static_cast<long>(end) + 1);
          const bool multiplies = std::any_of(span.begin(), span.end(), [](const std::string& x) {
            return x.find("mulps") != std::string::npos;
          });
          if (multiplies) {
            loop = span;
          }
        }
      }
    }
    ASSERT_FALSE(loop.empty()) << "no backward branch over a mulps in " << tile;
    std::string text;
    for (const std::string& l : loop) {
      text += l + "\n";
    }
    EXPECT_NE(text.find("mulps"), std::string::npos) << text;
    EXPECT_NE(text.find("addps"), std::string::npos) << text;
    EXPECT_EQ(text.find("(%rsp)"), std::string::npos) << "k loop touches the stack:\n" << text;
    EXPECT_EQ(text.find("(%rbp)"), std::string::npos) << "k loop touches the stack:\n" << text;
  }
}

class JitCacheTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }

  // Emits the single-kernel program for a small graph.
  CppKernel EmitOneKernel(const Graph& g) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_FALSE(compiled->program.kernels.empty());
    StatusOr<CppKernel> kernel = EmitCppKernel(compiled->program.kernels[0]);
    EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
    return kernel.value();
  }
};

// Acceptance criterion: a second process pointed at the same cache dir
// performs ZERO toolchain invocations.
TEST_F(JitCacheTest, WarmStartFromDiskSkipsToolchain) {
  const std::string dir = UniqueTestDir("warm");
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));

  JitCacheOptions cold_options;
  cold_options.dir = dir;
  {
    JitKernelCache cold(cold_options);
    StatusOr<JitKernelCache::Kernel> built = cold.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_TRUE(built->built);
    EXPECT_EQ(cold.stats().toolchain_invocations, 1);
    // Second lookup in the same process: in-memory hit, still one build.
    ASSERT_TRUE(cold.GetOrBuild(kernel).ok());
    EXPECT_EQ(cold.stats().memory_hits, 1);
    EXPECT_EQ(cold.stats().toolchain_invocations, 1);
  }

  // "Restarted" cache on the same directory: served from disk, no build.
  JitKernelCache warm(cold_options);
  StatusOr<JitKernelCache::Kernel> loaded = warm.GetOrBuild(kernel);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->from_disk);
  EXPECT_FALSE(loaded->built);
  EXPECT_EQ(warm.stats().toolchain_invocations, 0);
  EXPECT_EQ(warm.stats().disk_hits, 1);
}

TEST_F(JitCacheTest, CorruptEntryIsEvictedAndRebuilt) {
  const std::string dir = UniqueTestDir("corrupt");
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));

  JitCacheOptions options;
  options.dir = dir;
  std::string so_path;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok());
    so_path = dir + "/";
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(built->key));
    so_path += std::string(hex) + ".sfk.so";
  }
  // Truncate the .so into garbage.
  {
    std::ofstream f(so_path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(f.good());
    f << "not an ELF object";
  }

  JitKernelCache cache(options);
  StatusOr<JitKernelCache::Kernel> rebuilt = cache.GetOrBuild(kernel);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->built);
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_EQ(cache.stats().builds, 1);
}

// A valid shared object that lacks the expected symbol (e.g. written by a
// different emitter version at the same path) is corrupt, not a crash.
TEST_F(JitCacheTest, StaleSymbolIsCorrupt) {
  const std::string dir = UniqueTestDir("stale");
  CppKernel a = EmitOneKernel(BuildLayerNormGraph(8, 16));
  CppKernel b = EmitOneKernel(BuildLayerNormGraph(12, 16));
  ASSERT_NE(a.key, b.key);

  JitCacheOptions options;
  options.dir = dir;
  auto entry_so = [&](std::uint64_t entry_key) {
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(entry_key));
    return dir + "/" + std::string(hex) + ".sfk.so";
  };

  std::uint64_t a_entry = 0;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(a);
    ASSERT_TRUE(built.ok());
    a_entry = built->key;
  }
  // Probe b's entry key without building: compilation disabled.
  std::uint64_t b_entry = 0;
  {
    JitCacheOptions probe = options;
    probe.allow_compile = false;
    JitKernelCache cache(probe);
    StatusOr<JitKernelCache::Kernel> missing = cache.GetOrBuild(b);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  }
  // Plant kernel a's perfectly valid .so at kernel b's path.
  {
    StatusOr<std::string> blob = ReadFileToString(entry_so(a_entry));
    ASSERT_TRUE(blob.ok());
    // Discover b's entry path by planting at every possible location is
    // overkill — rebuild b once to learn it, then overwrite.
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(b);
    ASSERT_TRUE(built.ok());
    b_entry = built->key;
    ASSERT_TRUE(AtomicWriteFile(entry_so(b_entry), blob.value()).ok());
  }

  JitKernelCache cache(options);
  StatusOr<JitKernelCache::Kernel> rebuilt = cache.GetOrBuild(b);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->built);
  EXPECT_EQ(cache.stats().corrupt, 1);
}

// allow_compile=false + corrupt entry: the cache reports NotFound (after
// evicting), and an executor on top of it falls back to the interpreter
// with correct outputs — the "never crash" contract.
TEST_F(JitCacheTest, CorruptEntryWithCompileDisabledFallsBack) {
  const std::string dir = UniqueTestDir("corrupt-nocompile");
  Graph g = BuildLayerNormGraph(8, 16);
  CppKernel kernel = EmitOneKernel(g);

  JitCacheOptions options;
  options.dir = dir;
  std::uint64_t entry_key = 0;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok());
    entry_key = built->key;
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(entry_key));
  const std::string so_path = dir + "/" + std::string(hex) + ".sfk.so";
  {
    std::ofstream f(so_path, std::ios::trunc | std::ios::binary);
    f << "garbage";
  }

  JitExecutorOptions exec_options;
  exec_options.cache.dir = dir;
  exec_options.cache.allow_compile = false;
  JitExecutor executor(exec_options);
  ExpectJitMatchesInterpreter(g, /*seed=*/31, executor, /*tolerance=*/0.0f);
  EXPECT_GT(executor.stats().fallbacks, 0);
  EXPECT_EQ(executor.cache().stats().corrupt, 1);
  EXPECT_EQ(executor.cache().stats().toolchain_invocations, 0);
}

// The kernel key hashes code, not comments: the q, k and v projections
// differ only in the names their comments carry, so they share one key and
// the toolchain runs once for all three.
TEST_F(JitCacheTest, KernelsDifferingOnlyInCommentsShareOneBuild) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildQkvProj(32, 768, 768));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->program.kernels.size(), 3u);
  std::vector<CppKernel> kernels;
  for (const SmgSchedule& schedule : compiled->program.kernels) {
    StatusOr<CppKernel> kernel = EmitCppKernel(schedule);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    kernels.push_back(kernel.value());
  }
  EXPECT_NE(kernels[0].source, kernels[1].source);
  for (const CppKernel& kernel : kernels) {
    EXPECT_EQ(kernel.key, kernels[0].key);
  }

  JitCacheOptions options;
  options.dir = UniqueTestDir("shared-code");
  JitKernelCache cache(options);
  for (const CppKernel& kernel : kernels) {
    ASSERT_TRUE(cache.GetOrBuild(kernel).ok());
  }
  EXPECT_EQ(cache.stats().toolchain_invocations, 1);
  EXPECT_EQ(cache.stats().memory_hits, 2);
}

TEST_F(JitCacheTest, MissingEntryWithCompileDisabledIsNotFound) {
  JitCacheOptions options;
  options.dir = UniqueTestDir("nocompile");
  options.allow_compile = false;
  JitKernelCache cache(options);
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));
  StatusOr<JitKernelCache::Kernel> missing = cache.GetOrBuild(kernel);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().toolchain_invocations, 0);
}

// The default flags target the host's vector ISA and nothing that could
// change a kernel's bits.
TEST_F(JitCacheTest, DefaultFlagsTargetTheHostIsa) {
  const std::string flags = JitCacheOptions().flags;
  EXPECT_NE(flags.find("-ffp-contract=off"), std::string::npos) << flags;
  for (const char* banned : {"-mfma", "-march", "-ffast-math"}) {
    EXPECT_EQ(flags.find(banned), std::string::npos) << banned << " in " << flags;
  }
  bool avx2 = false;
#if defined(__x86_64__)
  __builtin_cpu_init();
  avx2 = __builtin_cpu_supports("avx2");
#endif
  EXPECT_EQ(flags.find("-mavx2") != std::string::npos, avx2) << flags;
}

// One kernel built under the host and the baseline flags is two entries:
// both live in one directory, and a restarted cache with either flag set
// loads its own .so without running the toolchain.
TEST_F(JitCacheTest, HostAndBaselineBuildsAreSeparateEntries) {
  if (JitCacheOptions().flags == kBaselineJitFlags) {
    GTEST_SKIP() << "the host flags are the baseline flags";
  }
  const std::string dir = UniqueTestDir("isa");
  CppKernel kernel = EmitOneKernel(BuildMatMulGraph(8, 20, 16, false, false));
  JitCacheOptions host;
  host.dir = dir;
  JitCacheOptions baseline = host;
  baseline.flags = kBaselineJitFlags;

  std::uint64_t host_key = 0;
  std::uint64_t baseline_key = 0;
  {
    JitKernelCache host_cache(host);
    JitKernelCache baseline_cache(baseline);
    StatusOr<JitKernelCache::Kernel> a = host_cache.GetOrBuild(kernel);
    StatusOr<JitKernelCache::Kernel> b = baseline_cache.GetOrBuild(kernel);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(a->built);
    EXPECT_TRUE(b->built);
    host_key = a->key;
    baseline_key = b->key;
  }
  EXPECT_NE(host_key, baseline_key);

  host.allow_compile = false;
  baseline.allow_compile = false;
  for (const auto& [options, key] : {std::make_pair(host, host_key),
                                     std::make_pair(baseline, baseline_key)}) {
    SCOPED_TRACE(options.flags);
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(key));
    EXPECT_TRUE(ReadFileToString(dir + "/" + hex + ".sfk.so").ok());
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> loaded = cache.GetOrBuild(kernel);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded->from_disk);
    EXPECT_EQ(loaded->key, key);
    EXPECT_EQ(cache.stats().toolchain_invocations, 0);
  }
}

// The cache lock covers only the probe and the insert: while one thread's
// cold build sits in a slow toolchain, another thread's memory hit returns
// at once, and two threads asking for the same cold kernel run the
// toolchain once.
TEST_F(JitCacheTest, ColdBuildDoesNotBlockMemoryHits) {
  const std::string dir = UniqueTestDir("slow-cxx");
  const std::string gate = dir + "/gate";
  const std::string started = dir + "/started";
  const char* env = std::getenv("SPACEFUSION_CXX");
  const std::string real = (env != nullptr && env[0] != '\0') ? env : "c++";
  // A compiler that, while the gate file exists, waits (up to 20 s) before
  // running the real one.
  const std::string script = dir + "/slow-cxx.sh";
  ASSERT_TRUE(AtomicWriteFile(script, "#!/bin/sh\n"
                                      "touch '" + started + "'\n"
                                      "i=0\n"
                                      "while [ -f '" + gate + "' ] && [ $i -lt 400 ]; do\n"
                                      "  sleep 0.05; i=$((i + 1))\n"
                                      "done\n"
                                      "exec " + real + " \"$@\"\n")
                  .ok());
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);
  auto exists = [](const std::string& path) { return std::filesystem::exists(path); };

  JitCacheOptions options;
  options.dir = dir + "/cache";
  options.compiler = script;
  JitKernelCache cache(options);
  const CppKernel warm = EmitOneKernel(BuildLayerNormGraph(8, 16));
  const CppKernel cold = EmitOneKernel(BuildLayerNormGraph(12, 16));
  const CppKernel shared = EmitOneKernel(BuildLayerNormGraph(16, 16));
  ASSERT_TRUE(cache.GetOrBuild(warm).ok());

  ASSERT_TRUE(AtomicWriteFile(gate, "").ok());
  std::remove(started.c_str());
  std::vector<StatusOr<JitKernelCache::Kernel>> results(3, Internal("not run"));
  std::vector<std::thread> threads;
  threads.emplace_back([&] { results[0] = cache.GetOrBuild(cold); });
  for (int t = 1; t <= 2; ++t) {
    threads.emplace_back([&, t] { results[static_cast<size_t>(t)] = cache.GetOrBuild(shared); });
  }
  for (int i = 0; i < 400 && !exists(started); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const bool build_started = exists(started);

  const auto begin = std::chrono::steady_clock::now();
  StatusOr<JitKernelCache::Kernel> hit = cache.GetOrBuild(warm);
  const double hit_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - begin).count();
  const bool gate_still_closed = exists(gate);
  std::remove(gate.c_str());
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_TRUE(build_started) << "no build reached the toolchain";
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(gate_still_closed);
  EXPECT_LT(hit_ms, 500.0) << "a memory hit waited for another kernel's build";
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(results[1]->fn, results[2]->fn);
  EXPECT_EQ(cache.stats().toolchain_invocations, 3);  // warm, cold, shared once
  EXPECT_EQ(cache.stats().builds, 3);
  EXPECT_EQ(cache.stats().memory_hits, 2);  // the timed hit and one shared rider
}

class CppCodegenTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_F(CppCodegenTest, EmissionIsDeterministic) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildMha(2, 32, 32, 16));
  ASSERT_TRUE(compiled.ok());
  StatusOr<std::string> first = EmitCppProgram(compiled->program);
  StatusOr<std::string> second = EmitCppProgram(compiled->program);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
}

// Element-wise loops vectorize under the JIT flags: the bias add of a
// linear layer (matmul + add) is reported vectorized at both vector widths.
// Reductions stay scalar on purpose (vectorizing them would reassociate
// their sums), so they are not checked.
TEST_F(CppCodegenTest, ElementwiseLoopIsReportedVectorized) {
#if defined(__clang__)
  GTEST_SKIP() << "-fopt-info-vec-optimized is a GCC report";
#endif
  GraphBuilder b("linear");
  TensorId x = b.Input("x", Shape({32, 768}));
  TensorId w = b.Weight("w", Shape({768, 768}));
  TensorId bias = b.Weight("bias", Shape({768}));
  b.MarkOutput(b.Linear(x, w, bias));
  const ScheduledProgram program = SinglePassProgram(b.Build());
  ASSERT_EQ(program.kernels.size(), 1u);
  StatusOr<CppKernel> kernel = EmitCppKernel(program.kernels[0]);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const std::string& src = kernel->source;
  ASSERT_NE(src.find("sf_matmul<"), std::string::npos) << src;

  // The add's loop nest: from its "binary" comment to the next op or the
  // kernel's return.
  const size_t add = src.find(": binary ->");
  ASSERT_NE(add, std::string::npos) << src;
  const size_t next = std::min(src.find("// op", add + 1), src.find("return 0;", add));
  auto line_of = [&src](size_t at) {
    return 1 + std::count(src.begin(), src.begin() + static_cast<long>(at), '\n');
  };
  const long first = line_of(add) + 1;
  const long last = line_of(next) - 1;

  for (const std::string& flags : JitFlagSets()) {
    SCOPED_TRACE(flags);
    const std::string report = CompileKernelSource(src, flags, "-fopt-info-vec-optimized",
                                                   UniqueTestDir("vec-report") + ".so");
    bool vectorized = false;
    std::istringstream lines(report);
    for (std::string l; std::getline(lines, l);) {
      for (long line = first; line <= last; ++line) {
        vectorized = vectorized || (l.find("kernel.cc:" + std::to_string(line) + ":") !=
                                        std::string::npos &&
                                    l.find("vectorized") != std::string::npos);
      }
    }
    EXPECT_TRUE(vectorized) << "no line in " << first << "-" << last << " reported vectorized:\n"
                            << report << "\n" << src;
  }
}

TEST_F(CppCodegenTest, BakesShapesAsConstants) {
  Graph g = BuildMha(2, 32, 32, 16);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok());
  StatusOr<CppKernel> kernel = EmitCppKernel(compiled->program.kernels[0]);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  // The ABI is fixed and the symbol carries the content hash.
  EXPECT_NE(kernel->source.find("extern \"C\" int " + kernel->symbol), std::string::npos);
  EXPECT_EQ(kernel->symbol.rfind("sf_k_", 0), 0u);
  EXPECT_EQ(kernel->symbol.size(), 5u + 16u);
  // No runtime shape parameters: extents live in the source as literals.
  EXPECT_EQ(kernel->source.find("shape"), std::string::npos);
  EXPECT_FALSE(kernel->input_ids.empty());
  EXPECT_FALSE(kernel->output_ids.empty());
}

TEST_F(CppCodegenTest, OptionsChangeTheKey) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildLayerNormGraph(8, 16));
  ASSERT_TRUE(compiled.ok());
  CppCodegenOptions plain;
  CppCodegenOptions reference;
  reference.reference_mode = true;
  StatusOr<CppKernel> a = EmitCppKernel(compiled->program.kernels[0], plain);
  StatusOr<CppKernel> b = EmitCppKernel(compiled->program.kernels[0], reference);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->key, b->key);
  EXPECT_NE(CppCodegenOptionsDigest(plain), CppCodegenOptionsDigest(reference));
}

// The code a kernel runs: its emitted source without comment lines, and
// with the symbol (a hash of that code) replaced by a placeholder.
std::string CodeOf(const CppKernel& kernel) {
  std::string code;
  std::istringstream lines(kernel.source);
  for (std::string line; std::getline(lines, line);) {
    const size_t first = line.find_first_not_of(' ');
    if (first != std::string::npos && line.compare(first, 2, "//") == 0) {
      continue;
    }
    const size_t sym = line.find(kernel.symbol);
    if (sym != std::string::npos) {
      line.replace(sym, kernel.symbol.size(), "@SYM@");
    }
    code += line + "\n";
  }
  return code;
}

// The binding memo is sound only if the key covers everything the emitter
// reads: over every kernel of the zoo models, the random-graph corpus and
// one schedule under two block-size configs, equal CppKernelBindingKey <=>
// equal emitted code.
TEST_F(CppCodegenTest, BindingKeyCoversEveryEmitterInput) {
  std::vector<SmgSchedule> schedules;
  auto add_program = [&](const Graph& g) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    ASSERT_TRUE(compiled.ok()) << g.name() << ": " << compiled.status().ToString();
    for (const SmgSchedule& kernel : compiled->program.kernels) {
      schedules.push_back(kernel);
    }
  };
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/32));
    std::set<std::uint64_t> seen;
    for (const Subprogram& sub : model.subprograms) {
      if (seen.insert(sub.graph.StructuralHash()).second) {
        add_program(sub.graph);
      }
    }
  }
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    add_program(RandomGraph(seed * 7919 + 3));
  }
  // One temporally sliced schedule under two temporal steps, spatial blocks
  // unchanged: both slice the dim into several intra-blocks, so the code
  // differs and so must the key.
  {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildMha(2, 16, 64, 8));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const SmgSchedule& tuned = compiled->program.kernels[0];
    ASSERT_TRUE(tuned.has_temporal);
    for (std::int64_t step : {16, 32}) {
      SmgSchedule configured = tuned;
      ScheduleConfig config;
      for (const DimSlice& slice : configured.spatial) {
        config.spatial_blocks.push_back(slice.block);
      }
      config.temporal_step = step;
      config.use_temporal = true;
      configured.ApplyConfig(config);
      ASSERT_GT(configured.NumIntraBlocks(), 1);
      schedules.push_back(configured);
    }
  }

  std::map<std::uint64_t, std::string> code_of_key;
  std::map<std::string, std::uint64_t> key_of_code;
  for (const SmgSchedule& schedule : schedules) {
    StatusOr<CppKernel> kernel = EmitCppKernel(schedule);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    const std::uint64_t key = CppKernelBindingKey(schedule);
    const std::string code = CodeOf(kernel.value());
    auto [by_key, new_key] = code_of_key.emplace(key, code);
    EXPECT_TRUE(new_key || by_key->second == code)
        << "equal binding keys, different code: " << schedule.ToString();
    auto [by_code, new_code] = key_of_code.emplace(code, key);
    EXPECT_TRUE(new_code || by_code->second == key)
        << "equal code, different binding keys: " << schedule.ToString();
  }
  EXPECT_GT(code_of_key.size(), schedules.size() / 2);

  // Names reach the source only as comments: a renamed copy keys equal.
  const SmgSchedule& original = schedules.front();
  Graph renamed("renamed_" + original.graph.name());
  for (TensorInfo t : original.graph.tensors()) {
    t.name = "renamed_" + t.name;
    renamed.AddTensor(t);
  }
  for (Op op : original.graph.ops()) {
    op.name = "renamed_" + op.name;
    renamed.AddOp(op);
  }
  SmgSchedule copy = original;
  copy.graph = renamed;
  EXPECT_EQ(CppKernelBindingKey(copy), CppKernelBindingKey(original));
  StatusOr<CppKernel> renamed_kernel = EmitCppKernel(copy);
  StatusOr<CppKernel> original_kernel = EmitCppKernel(original);
  ASSERT_TRUE(renamed_kernel.ok() && original_kernel.ok());
  EXPECT_NE(renamed_kernel->source, original_kernel->source);
  EXPECT_EQ(CodeOf(renamed_kernel.value()), CodeOf(original_kernel.value()));

  // Every emission-affecting option changes the key.
  CppCodegenOptions reference;
  reference.reference_mode = true;
  CppCodegenOptions unfused;
  unfused.fuse_elementwise = false;
  EXPECT_NE(CppKernelBindingKey(original, reference), CppKernelBindingKey(original));
  EXPECT_NE(CppKernelBindingKey(original, unfused), CppKernelBindingKey(original));
}

// reference_mode disables temporal slicing and fused elementwise chains;
// its output must still match the interpreter (it IS the unfused op
// stream), which anchors the fused-vs-unfused wall-clock benchmark.
TEST_F(CppCodegenTest, ReferenceModeMatchesInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("refmode");
  options.codegen.reference_mode = true;
  options.codegen.fuse_elementwise = false;
  JitExecutor executor(options);
  Graph g = BuildMha(2, 16, 16, 8);
  ExpectJitMatchesInterpreter(g, /*seed=*/41, executor, /*tolerance=*/1e-4f);
  EXPECT_GT(executor.stats().jit_runs, 0);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

// The program walker both backends share rejects a malformed input env with
// InvalidArgument naming the offending tensor, before any kernel runs — so
// the JIT never miscounts a bad env as a kernel fallback. Param: true runs
// JitExecutor::RunProgram, false RunScheduledProgram.
class ProgramWalkerTest : public ::testing::TestWithParam<bool> {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_P(ProgramWalkerTest, MalformedInputEnvIsInvalidArgument) {
  const Graph g = BuildLayerNormGraph(/*m=*/8, /*n=*/16);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("walker");
  JitExecutor jit(options);
  auto run = [&](const TensorEnv& inputs) {
    TensorEnv outputs;
    return GetParam() ? jit.RunProgram(compiled->program, g, inputs, &outputs)
                      : RunScheduledProgram(compiled->program, g, inputs, &outputs);
  };

  const TensorEnv good = MakeGraphInputs(g, /*seed=*/51);
  const TensorInfo& x = g.tensor(g.InputIds()[0]);
  const TensorInfo& gamma = g.tensor(g.WeightIds()[0]);
  TensorEnv short_env(good.begin(), good.end() - 1);
  TensorEnv undefined_weight = good;
  undefined_weight[static_cast<size_t>(gamma.id)] = Tensor();
  TensorEnv misshaped_input = good;
  misshaped_input[static_cast<size_t>(x.id)] = Tensor::Zeros(Shape({8, 17}), x.dtype);

  const struct {
    const TensorEnv& env;
    const std::string& name;
  } cases[] = {{short_env, g.name()}, {undefined_weight, gamma.name}, {misshaped_input, x.name}};
  for (const auto& c : cases) {
    const Status st = run(c.env);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(c.name), std::string::npos) << st.ToString();
  }
  EXPECT_EQ(jit.stats().fallbacks, 0);
  EXPECT_EQ(jit.stats().jit_runs, 0);
  EXPECT_TRUE(run(good).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, ProgramWalkerTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Jit" : "Interpreter";
                         });

// ---------------------------------------------------------------------------
// Engine prewarm: with prewarm_jit + a cache_dir, a cold engine builds every
// kernel .so at compile time and a second engine on the same directory
// serves both the program and the kernels from disk — zero toolchain
// invocations on the warm restart (the property the CI serve step asserts
// daemon-wide through sf-serve --jit).

class CapturingReportSink : public ReportSink {
 public:
  void Emit(const CompileReport& report) override { reports.push_back(report); }
  std::vector<CompileReport> reports;
};

TEST(JitPrewarmTest, WarmEngineRestartInvokesNoToolchain) {
  const std::string dir = UniqueTestDir("prewarm");
  Graph g = BuildMha(4, 64, 64, 32);

  EngineOptions options{CompileOptions(AmpereA100())};
  options.cache_dir = dir;
  options.prewarm_jit = true;

  CapturingReportSink cold_sink;
  {
    EngineOptions cold_options = options;
    cold_options.report_sink = &cold_sink;
    CompilerEngine engine{cold_options};
    ASSERT_NE(engine.jit_cache(), nullptr);
    ASSERT_TRUE(engine.Compile(g).ok());
    EXPECT_GT(engine.jit_cache()->stats().builds, 0);
  }
  ASSERT_EQ(cold_sink.reports.size(), 1u);
  EXPECT_EQ(cold_sink.reports[0].outcome, "cold");
  EXPECT_GT(cold_sink.reports[0].jit_kernels_built, 0);
  EXPECT_GT(cold_sink.reports[0].jit_build_ms, 0.0);

  CapturingReportSink warm_sink;
  {
    EngineOptions warm_options = options;
    warm_options.report_sink = &warm_sink;
    CompilerEngine engine{warm_options};
    ASSERT_NE(engine.jit_cache(), nullptr);
    ASSERT_TRUE(engine.Compile(g).ok());
    const JitKernelCache::Stats stats = engine.jit_cache()->stats();
    EXPECT_EQ(stats.toolchain_invocations, 0);
    EXPECT_EQ(stats.builds, 0);
    EXPECT_GT(stats.disk_hits, 0);
  }
  ASSERT_EQ(warm_sink.reports.size(), 1u);
  EXPECT_EQ(warm_sink.reports[0].outcome, "persistent_hit");
  EXPECT_EQ(warm_sink.reports[0].jit_kernels_built, 0);
  EXPECT_GT(warm_sink.reports[0].jit_kernels_cached, 0);
}

}  // namespace
}  // namespace spacefusion
