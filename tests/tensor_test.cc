#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace spacefusion {
namespace {

TEST(ShapeTest, VolumeAndStrides) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.volume(), 24);
  std::vector<std::int64_t> strides = s.strides();
  EXPECT_EQ(strides, (std::vector<std::int64_t>{12, 4, 1}));
  EXPECT_EQ(s.FlatIndex({1, 2, 3}), 23);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
}

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.volume(), 1);
}

TEST(TensorTest, ZerosAndFull) {
  Tensor z = Tensor::Zeros({2, 2});
  EXPECT_EQ(z.at(3), 0.0f);
  Tensor f = Tensor::Full({2, 2}, 1.5f);
  EXPECT_EQ(f.at(0), 1.5f);
  EXPECT_EQ(f.bytes(), 4 * 2);  // fp16 default
  Tensor f32 = Tensor::Full({2, 2}, 1.0f, DType::kF32);
  EXPECT_EQ(f32.bytes(), 4 * 4);
}

TEST(TensorTest, RandomIsDeterministic) {
  Tensor a = Tensor::Random({16}, 7);
  Tensor b = Tensor::Random({16}, 7);
  Tensor c = Tensor::Random({16}, 8);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
  EXPECT_GT(MaxAbsDiff(a, c), 0.0f);
  for (std::int64_t i = 0; i < a.volume(); ++i) {
    EXPECT_GE(a.at(i), -1.0f);
    EXPECT_LT(a.at(i), 1.0f);
  }
}

TEST(TensorTest, CopiesShareBuffersCloneDoesNot) {
  Tensor a = Tensor::Zeros({4});
  Tensor shared = a;
  Tensor cloned = a.Clone();
  a.at(0) = 9.0f;
  EXPECT_EQ(shared.at(0), 9.0f);
  EXPECT_EQ(cloned.at(0), 0.0f);
}

TEST(TensorOpsTest, MatMulSmall) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({3, 2});
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  for (int i = 0; i < 6; ++i) {
    a.at(i) = static_cast<float>(i + 1);
    b.at(i) = static_cast<float>(i + 7);
  }
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(2), 139.0f);
  EXPECT_FLOAT_EQ(c.at(3), 154.0f);
}

TEST(TensorOpsTest, MatMulTransposeIdentities) {
  Tensor a = Tensor::Random({5, 7}, 1);
  Tensor b = Tensor::Random({7, 4}, 2);
  Tensor expect = MatMul(a, b);
  // (A^T)^T B
  Tensor at = Transpose(a);
  EXPECT_LT(MaxAbsDiff(MatMul(at, b, /*transpose_a=*/true, false), expect), 1e-5f);
  // A (B^T)^T
  Tensor bt = Transpose(b);
  EXPECT_LT(MaxAbsDiff(MatMul(a, bt, false, /*transpose_b=*/true), expect), 1e-5f);
}

TEST(TensorOpsTest, BatchedMatMulBroadcastsBatchDims) {
  Tensor a = Tensor::Random({3, 4, 5}, 3);
  Tensor w = Tensor::Random({5, 2}, 4);  // no batch dims: broadcast
  Tensor c = MatMul(a, w);
  EXPECT_EQ(c.shape(), Shape({3, 4, 2}));
  // Each batch must equal its own 2-D matmul.
  for (std::int64_t batch = 0; batch < 3; ++batch) {
    Tensor slice = Tensor::Zeros({4, 5});
    for (std::int64_t i = 0; i < 20; ++i) {
      slice.at(i) = a.at(batch * 20 + i);
    }
    Tensor expect = MatMul(slice, w);
    for (std::int64_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(c.at(batch * 8 + i), expect.at(i), 1e-5f);
    }
  }
}

// Offset of one operand's matrix for the flat output batch index `flat`:
// batch dims right-aligned, extent-1 dims broadcast.
std::int64_t NaiveBatchOffset(const std::vector<std::int64_t>& out_batch, std::int64_t flat,
                              const std::vector<std::int64_t>& batch, std::int64_t mat) {
  std::int64_t offset = 0;
  std::int64_t stride = mat;
  for (size_t back = 0; back < batch.size(); ++back) {
    const std::int64_t out_extent = out_batch[out_batch.size() - 1 - back];
    const std::int64_t extent = batch[batch.size() - 1 - back];
    offset += (extent == 1 ? 0 : flat % out_extent) * stride;
    flat /= out_extent;
    stride *= extent;
  }
  return offset;
}

// The plain i, j, kk triple loop: C[i, j] = 0.0f, then += A(i, kk) * B(kk, j)
// in ascending kk.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::vector<std::int64_t> ad = a.shape().dims();
  const std::vector<std::int64_t> bd = b.shape().dims();
  const std::int64_t m = ta ? ad.back() : ad[ad.size() - 2];
  const std::int64_t k = ta ? ad[ad.size() - 2] : ad.back();
  const std::int64_t n = tb ? bd[bd.size() - 2] : bd.back();
  const std::vector<std::int64_t> a_batch(ad.begin(), ad.end() - 2);
  const std::vector<std::int64_t> b_batch(bd.begin(), bd.end() - 2);
  std::vector<std::int64_t> out_dims = BroadcastShape(Shape(a_batch), Shape(b_batch)).dims();
  const std::vector<std::int64_t> out_batch = out_dims;
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out = Tensor::Zeros(Shape(out_dims));
  for (std::int64_t bi = 0; bi < Shape(out_batch).volume(); ++bi) {
    const std::int64_t a0 = NaiveBatchOffset(out_batch, bi, a_batch, m * k);
    const std::int64_t b0 = NaiveBatchOffset(out_batch, bi, b_batch, k * n);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = ta ? a.at(a0 + kk * m + i) : a.at(a0 + i * k + kk);
          const float bv = tb ? b.at(b0 + j * k + kk) : b.at(b0 + kk * n + j);
          acc += av * bv;
        }
        out.at(bi * m * n + i * n + j) = acc;
      }
    }
  }
  return out;
}

// MatMul streams rows for speed but keeps every element's operation order,
// so it matches the triple loop bit for bit: all four transpose
// combinations, with and without broadcast batch dims.
TEST(TensorOpsTest, MatMulIsBitIdenticalToTripleLoop) {
  const std::int64_t m = 9;
  const std::int64_t k = 37;
  const std::int64_t n = 21;
  const std::vector<std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>> batches = {
      {{}, {}}, {{3}, {}}, {{}, {3}}, {{2, 1}, {3}}, {{2, 3}, {1, 3}}};
  std::uint64_t seed = 1;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (const auto& [a_batch, b_batch] : batches) {
        std::vector<std::int64_t> a_dims = a_batch;
        a_dims.insert(a_dims.end(), {ta ? k : m, ta ? m : k});
        std::vector<std::int64_t> b_dims = b_batch;
        b_dims.insert(b_dims.end(), {tb ? n : k, tb ? k : n});
        const Tensor a = Tensor::Random(Shape(a_dims), seed++);
        const Tensor b = Tensor::Random(Shape(b_dims), seed++);
        const Tensor got = MatMul(a, b, ta, tb);
        const Tensor want = NaiveMatMul(a, b, ta, tb);
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<size_t>(got.volume()) * sizeof(float)),
                  0)
            << "ta=" << ta << " tb=" << tb << " a=" << a.shape().ToString()
            << " b=" << b.shape().ToString();
      }
    }
  }
}

TEST(TensorOpsTest, BroadcastShapes) {
  EXPECT_EQ(BroadcastShape(Shape({4, 1}), Shape({4, 8})), Shape({4, 8}));
  EXPECT_EQ(BroadcastShape(Shape({8}), Shape({4, 8})), Shape({4, 8}));
  EXPECT_EQ(BroadcastShape(Shape({1}), Shape({2, 3})), Shape({2, 3}));
}

TEST(TensorOpsTest, BinaryBroadcastRowStat) {
  Tensor x = Tensor::Random({3, 4}, 5);
  Tensor stat = Reduce(ReduceKind::kMax, x);
  EXPECT_EQ(stat.shape(), Shape({3, 1}));
  Tensor sub = Binary(BinaryKind::kSub, x, stat);
  Tensor row_max = Reduce(ReduceKind::kMax, sub);
  for (std::int64_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(row_max.at(r), 0.0f, 1e-6f);  // max(x - rowmax) == 0
  }
}

TEST(TensorOpsTest, ReduceKinds) {
  Tensor x = Tensor::Zeros({1, 4});
  for (int i = 0; i < 4; ++i) {
    x.at(i) = static_cast<float>(i + 1);  // 1 2 3 4
  }
  EXPECT_FLOAT_EQ(Reduce(ReduceKind::kMax, x).at(0), 4.0f);
  EXPECT_FLOAT_EQ(Reduce(ReduceKind::kSum, x).at(0), 10.0f);
  EXPECT_FLOAT_EQ(Reduce(ReduceKind::kMean, x).at(0), 2.5f);
}

TEST(TensorOpsTest, UnaryFunctions) {
  EXPECT_FLOAT_EQ(EvalUnary(UnaryKind::kRelu, -2.0f), 0.0f);
  EXPECT_FLOAT_EQ(EvalUnary(UnaryKind::kRelu, 3.0f), 3.0f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kSigmoid, 0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kExp, 1.0f), std::exp(1.0f), 1e-6f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kRsqrt, 4.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kGelu, 0.0f), 0.0f, 1e-6f);
  // GELU is asymptotically identity for large x.
  EXPECT_NEAR(EvalUnary(UnaryKind::kGelu, 10.0f), 10.0f, 1e-3f);
}

class SoftmaxPropertyTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SoftmaxPropertyTest, RowsSumToOne) {
  std::int64_t n = GetParam();
  Tensor x = Tensor::Random({7, n}, 11 + static_cast<std::uint64_t>(n));
  Tensor sm = Softmax(x);
  Tensor sums = Reduce(ReduceKind::kSum, sm);
  for (std::int64_t r = 0; r < 7; ++r) {
    EXPECT_NEAR(sums.at(r), 1.0f, 1e-5f);
  }
  for (std::int64_t i = 0; i < sm.volume(); ++i) {
    EXPECT_GE(sm.at(i), 0.0f);
  }
}

TEST_P(SoftmaxPropertyTest, InvariantToRowShift) {
  std::int64_t n = GetParam();
  Tensor x = Tensor::Random({3, n}, 13);
  Tensor shifted = Binary(BinaryKind::kAdd, x, Tensor::Full({1}, 5.0f));
  EXPECT_LT(MaxAbsDiff(Softmax(x), Softmax(shifted)), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxPropertyTest, ::testing::Values(1, 2, 5, 16, 63, 128));

class LayerNormPropertyTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LayerNormPropertyTest, NormalizesRows) {
  std::int64_t n = GetParam();
  Tensor x = Tensor::Random({5, n}, 17);
  Tensor out = LayerNorm(x, Tensor(), Tensor(), 1e-6f);
  Tensor mean = Reduce(ReduceKind::kMean, out);
  Tensor var = Reduce(ReduceKind::kMean, Unary(UnaryKind::kSquare, out));
  for (std::int64_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(mean.at(r), 0.0f, 1e-4f);
    if (n > 1) {
      EXPECT_NEAR(var.at(r), 1.0f, 2e-2f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LayerNormPropertyTest, ::testing::Values(8, 64, 256, 1000));

TEST(TensorOpsTest, TransposeRoundTrip) {
  Tensor x = Tensor::Random({2, 3, 5}, 19);
  EXPECT_EQ(Transpose(x).shape(), Shape({2, 5, 3}));
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(x)), x), 1e-7f);
}

TEST(TensorOpsTest, MaxRelDiffScaleAware) {
  Tensor a = Tensor::Full({2}, 1000.0f);
  Tensor b = Tensor::Full({2}, 1001.0f);
  EXPECT_LT(MaxRelDiff(a, b), 2e-3f);
  EXPECT_GT(MaxAbsDiff(a, b), 0.5f);
}

}  // namespace
}  // namespace spacefusion
