// Tests for the plain-text dataset (de)serialization.

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/io.h"
#include "src/data/splits.h"
#include "src/io/binary.h"

namespace adpa {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/adpa_io_test.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Dataset MakeDataset(uint64_t seed = 3) {
    DsbmConfig config;
    config.num_nodes = 60;
    config.num_classes = 3;
    config.avg_out_degree = 4.0;
    config.class_transition = HomophilousTransition(3, 0.7);
    config.feature_dim = 5;
    config.seed = seed;
    Dataset ds = std::move(GenerateDsbm(config)).value();
    ds.name = "io-test";
    Rng rng(seed);
    Split split =
        std::move(SplitFractions(ds.labels, 3, 0.5, 0.25, &rng)).value();
    ds.train_idx = split.train;
    ds.val_idx = split.val;
    ds.test_idx = split.test;
    return ds;
  }

  std::string path_;
};

TEST_F(IoTest, RoundTripPreservesEverything) {
  Dataset original = MakeDataset();
  ASSERT_TRUE(SaveDataset(original, path_).ok());
  Result<Dataset> loaded = LoadDataset(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, original.name);
  EXPECT_EQ(loaded->num_classes, original.num_classes);
  EXPECT_EQ(loaded->graph.edges(), original.graph.edges());
  EXPECT_EQ(loaded->labels, original.labels);
  EXPECT_EQ(loaded->train_idx, original.train_idx);
  EXPECT_EQ(loaded->val_idx, original.val_idx);
  EXPECT_EQ(loaded->test_idx, original.test_idx);
  // Floats round-trip at %.6g: tight but not bit-exact.
  EXPECT_TRUE(AllClose(loaded->features, original.features, 1e-4f));
}

TEST_F(IoTest, LoadRejectsMissingFile) {
  Result<Dataset> r = LoadDataset("/nonexistent/definitely/not/here.txt");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, LoadRejectsBadMagic) {
  std::ofstream out(path_);
  out << "not-a-dataset 1\n";
  out.close();
  EXPECT_FALSE(LoadDataset(path_).ok());
}

TEST_F(IoTest, LoadRejectsTruncatedEdges) {
  Dataset ds = MakeDataset();
  ASSERT_TRUE(SaveDataset(ds, path_).ok());
  // Truncate the file in the middle of the edge list.
  std::ifstream in(path_);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_);
  out << contents.substr(0, contents.size() / 3);
  out.close();
  EXPECT_FALSE(LoadDataset(path_).ok());
}

TEST_F(IoTest, SaveRejectsInvalidDataset) {
  Dataset ds = MakeDataset();
  ds.labels[0] = 99;  // out of range
  EXPECT_FALSE(SaveDataset(ds, path_).ok());
}

TEST_F(IoTest, LoadValidatesSemantics) {
  // Well-formed syntax but overlapping or empty splits must be rejected.
  const auto load_with_splits = [this](const std::string& splits) {
    std::ofstream out(path_);
    out << "adpa-dataset 1\n"
        << "name bad\n"
        << "nodes 3 classes 2 features 1\n"
        << "edges 1\n0 1\n"
        << "labels\n0 1 0\n"
        << "features\n0.5\n0.5\n0.5\n"
        << splits;
    out.close();
    return LoadDataset(path_);
  };
  // Node 0 in train AND val.
  EXPECT_FALSE(load_with_splits("train 1 0\nval 1 0\ntest 1 2\n").ok());
  // No validation node: training could not select a model.
  const Result<Dataset> no_val =
      load_with_splits("train 1 0\nval 0\ntest 1 2\n");
  ASSERT_FALSE(no_val.ok());
  EXPECT_EQ(no_val.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(IoTest, StreamRoundTripMatchesFileRoundTrip) {
  const Dataset original = MakeDataset();
  std::ostringstream out;
  ASSERT_TRUE(SaveDatasetToStream(original, out).ok());
  std::istringstream in(out.str());
  Result<Dataset> loaded = LoadDatasetFromStream(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded->num_edges(), original.num_edges());
  EXPECT_EQ(loaded->labels, original.labels);
}

TEST_F(IoTest, HostileHeaderDimensionsAreRejectedBeforeAllocation) {
  // A hostile header claiming astronomically many nodes/features must be
  // rejected by the DatasetLimits ceilings, not by an OOM inside Matrix.
  const auto load_with_header = [](const std::string& header,
                                   const DatasetLimits& limits) {
    std::istringstream in("adpa-dataset 1\nname evil\n" + header +
                          "\nedges 0\n");
    return LoadDatasetFromStream(in, limits);
  };
  DatasetLimits tight;
  tight.max_nodes = 1000;
  tight.max_edges = 10000;
  tight.max_features = 100;
  tight.max_feature_entries = 10000;

  Result<Dataset> r =
      load_with_header("nodes 999999999999 classes 2 features 1", tight);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("node count exceeds limit"),
            std::string::npos);

  r = load_with_header("nodes 10 classes 2 features 999999", tight);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("feature dim exceeds limit"),
            std::string::npos);

  // Individually-legal dims whose product overflows the entry ceiling.
  r = load_with_header("nodes 1000 classes 2 features 100", tight);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("exceeds entry limit"),
            std::string::npos);

  std::istringstream edges_in(
      "adpa-dataset 1\nname evil\nnodes 4 classes 2 features 1\n"
      "edges 99999999\n");
  r = LoadDatasetFromStream(edges_in, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("edge count exceeds limit"),
            std::string::npos);
}

// Truncation sweep over the checked binary primitives (src/io/binary.h):
// every Read* must turn every possible short read — each byte boundary of
// its encoding, including zero bytes — into a non-OK Status, never a crash
// or a silently partial value. These primitives are the only file-access
// surface of src/io/ and src/serve/, so this sweep is the bedrock of the
// corrupt-artifact degradation guarantees.
TEST(BinaryTruncationSweepTest, EveryPrimitiveRejectsEveryShortRead) {
  struct Primitive {
    const char* name;
    size_t encoded_size;
    std::function<Status(BinaryReader*)> read;
  };
  const std::string text = "abcdef";
  std::ostringstream matrix_stream;
  {
    BinaryWriter writer(&matrix_stream);
    Matrix m(2, 3);
    for (int64_t r = 0; r < 2; ++r) {
      for (int64_t c = 0; c < 3; ++c) m.At(r, c) = static_cast<float>(r + c);
    }
    writer.WriteMatrix(m);
    ASSERT_TRUE(writer.status().ok());
  }
  const std::vector<Primitive> primitives = {
      {"ReadU8", 1,
       [](BinaryReader* r) {
         uint8_t v;
         return r->ReadU8(&v);
       }},
      {"ReadU32", 4,
       [](BinaryReader* r) {
         uint32_t v;
         return r->ReadU32(&v);
       }},
      {"ReadU64", 8,
       [](BinaryReader* r) {
         uint64_t v;
         return r->ReadU64(&v);
       }},
      {"ReadI32", 4,
       [](BinaryReader* r) {
         int32_t v;
         return r->ReadI32(&v);
       }},
      {"ReadI64", 8,
       [](BinaryReader* r) {
         int64_t v;
         return r->ReadI64(&v);
       }},
      {"ReadF32", 4,
       [](BinaryReader* r) {
         float v;
         return r->ReadF32(&v);
       }},
      {"ReadF64", 8,
       [](BinaryReader* r) {
         double v;
         return r->ReadF64(&v);
       }},
      {"ReadBytes", 6,
       [](BinaryReader* r) {
         char buffer[6];
         return r->ReadBytes(buffer, sizeof(buffer));
       }},
      {"ReadString", 4 + text.size(),
       [](BinaryReader* r) {
         std::string v;
         return r->ReadString(&v, 1024);
       }},
      {"ReadMatrix", matrix_stream.str().size(),
       [](BinaryReader* r) {
         Matrix v;
         return r->ReadMatrix(&v, 1024);
       }},
  };

  for (const Primitive& primitive : primitives) {
    // A well-formed encoding of exactly this primitive.
    std::ostringstream out;
    BinaryWriter writer(&out);
    if (std::string(primitive.name) == "ReadString") {
      writer.WriteString(text);
    } else if (std::string(primitive.name) == "ReadMatrix") {
      out << matrix_stream.str();
    } else if (std::string(primitive.name) == "ReadBytes") {
      writer.WriteBytes(text.data(), 6);
    } else if (primitive.encoded_size == 1) {
      writer.WriteU8(0xAB);
    } else if (primitive.encoded_size == 4) {
      writer.WriteU32(0xDEADBEEF);
    } else {
      writer.WriteU64(0xDEADBEEFCAFEF00Dull);
    }
    ASSERT_TRUE(writer.status().ok());
    const std::string bytes = out.str();
    ASSERT_EQ(bytes.size(), primitive.encoded_size) << primitive.name;

    // The full encoding reads back OK...
    {
      std::istringstream in(bytes);
      BinaryReader reader(&in);
      EXPECT_TRUE(primitive.read(&reader).ok()) << primitive.name;
    }
    // ...and every strict prefix is a checked error.
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::istringstream in(bytes.substr(0, len));
      BinaryReader reader(&in);
      const Status status = primitive.read(&reader);
      EXPECT_FALSE(status.ok())
          << primitive.name << " accepted a " << len << "-byte prefix of its "
          << bytes.size() << "-byte encoding";
    }
  }
}

TEST_F(IoTest, HandWrittenFileLoads) {
  std::ofstream out(path_);
  out << "adpa-dataset 1\n"
      << "name tiny\n"
      << "nodes 4 classes 2 features 2\n"
      << "edges 3\n0 1\n1 2\n2 3\n"
      << "labels\n0 0 1 1\n"
      << "features\n1 0\n1 0\n0 1\n0 1\n"
      << "train 2 0 2\nval 1 1\ntest 1 3\n";
  out.close();
  Result<Dataset> ds = LoadDataset(path_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_nodes(), 4);
  EXPECT_EQ(ds->num_edges(), 3);
  EXPECT_FLOAT_EQ(ds->features.At(2, 1), 1.0f);
}

}  // namespace
}  // namespace adpa
