// Tests for the auxiliary extensions: parameter serialization and trace
// export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/params_io.hpp"
#include "nets/nets.hpp"
#include "ocl/trace.hpp"

namespace clflow {
namespace {

// --- Parameter serialization -----------------------------------------------------

TEST(ParamsIo, TensorRoundTrip) {
  const std::string path = ::testing::TempDir() + "/t.clf";
  Rng rng(11);
  Tensor t = Tensor::Random(Shape{3, 4, 5}, rng);
  graph::SaveTensor(t, path);
  Tensor back = graph::LoadTensor(path);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(Tensor::MaxAbsDiff(back, t), 0.0f);
}

TEST(ParamsIo, RejectsGarbageFiles) {
  const std::string path = ::testing::TempDir() + "/garbage.clf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a tensor", f);
  std::fclose(f);
  EXPECT_THROW((void)graph::LoadTensor(path), Error);
  EXPECT_THROW((void)graph::LoadTensor("/nonexistent/x.clf"), Error);
}

TEST(ParamsIo, NetworkRoundTripPreservesInference) {
  const std::string dir = ::testing::TempDir() + "/lenet_params";
  std::filesystem::create_directories(dir);

  Rng rng_a(21), rng_b(22);
  graph::Graph trained = nets::BuildLeNet5(rng_a);
  graph::Graph fresh = nets::BuildLeNet5(rng_b);  // different weights

  const int files = graph::SaveParameters(trained, dir);
  EXPECT_EQ(files, 10);  // 5 parameterized layers x (w + b)
  graph::Graph restored = graph::LoadParameters(fresh, dir);

  Rng img_rng(23);
  Tensor image = nets::SyntheticMnistImage(img_rng);
  Tensor expected = graph::Execute(trained, image);
  Tensor before = graph::Execute(fresh, image);
  Tensor after = graph::Execute(restored, image);
  EXPECT_GT(Tensor::MaxAbsDiff(before, expected), 1e-4f);  // really differed
  EXPECT_EQ(Tensor::MaxAbsDiff(after, expected), 0.0f);    // fully restored
}

// --- Trace export ------------------------------------------------------------------

TEST(Trace, ExportsWellFormedChromeTrace) {
  ocl::EventPool events;
  events.Record("write_input", ocl::CommandKind::kWriteBuffer, 0,
                SimTime::Us(0), SimTime::Us(1), SimTime::Us(26),
                kSimTimeZero, 4096, 0, 0, 0);
  events.Record("k_conv\"1\"", ocl::CommandKind::kKernel, -1,
                SimTime::Us(26), SimTime::Us(26), SimTime::Us(80),
                kSimTimeZero, 0, 0, 0, 0);
  const std::string json = ocl::ExportChromeTrace(events, "lenet");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"write_input\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
  // Quotes in labels are escaped; autorun maps to tid 0.
  EXPECT_NE(json.find("k_conv\\\"1\\\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  // Balanced braces (rough well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace clflow
