#include "dur/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/model.h"
#include "data/synthetic.h"

namespace supa {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case file name: `ctest -j` runs the cases of this fixture
    // as concurrent processes, so a shared path races.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/supa_checkpoint_" + info->name() + ".bin";
    data_ = MakeTaobao(0.15, 81).value();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  SupaConfig Config(int dim = 16) {
    SupaConfig c;
    c.dim = dim;
    c.num_walks = 2;
    c.walk_len = 3;
    c.seed = 3;
    return c;
  }

  void TrainSome(SupaModel& model, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(model.TrainEdge(data_.edges[i]).ok());
      ASSERT_TRUE(model.ObserveEdge(data_.edges[i]).ok());
    }
  }

  std::string path_;
  Dataset data_;
};

TEST_F(CheckpointTest, RoundTripRestoresScores) {
  SupaModel model(data_, Config());
  TrainSome(model, 500);
  ASSERT_TRUE(SaveCheckpoint(model, path_).ok());
  const double score = model.Score(1, 300, 0);

  SupaModel restored(data_, Config());
  EXPECT_NE(restored.Score(1, 300, 0), score);  // fresh init differs
  ASSERT_TRUE(LoadCheckpoint(path_, &restored).ok());
  EXPECT_EQ(restored.Score(1, 300, 0), score);
}

TEST_F(CheckpointTest, TrainingContinuesIdentically) {
  // Save, continue training the original, then load into a copy whose
  // graph is replayed: both must evolve identically.
  SupaModel a(data_, Config());
  TrainSome(a, 400);
  ASSERT_TRUE(SaveCheckpoint(a, path_).ok());

  SupaModel b(data_, Config());
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(b.ObserveEdge(data_.edges[i]).ok());
  }
  ASSERT_TRUE(LoadCheckpoint(path_, &b).ok());

  // NOTE: continued training also consumes the model-internal RNG (walk
  // sampling), which is not part of the checkpoint, so exact bit equality
  // of *future* training is not promised — but the restored state itself
  // must match.
  EXPECT_EQ(a.TakeSnapshot().params, b.TakeSnapshot().params);
}

TEST_F(CheckpointTest, RejectsWrongLayout) {
  SupaModel model(data_, Config(16));
  TrainSome(model, 100);
  ASSERT_TRUE(SaveCheckpoint(model, path_).ok());

  SupaModel wrong_dim(data_, Config(32));
  EXPECT_EQ(LoadCheckpoint(path_, &wrong_dim).code(),
            StatusCode::kFailedPrecondition);

  Dataset other = MakeUci(0.2, 82).value();
  SupaModel wrong_data(other, Config(16));
  EXPECT_EQ(LoadCheckpoint(path_, &wrong_data).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, RejectsGarbageFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not a checkpoint";
  out.close();
  SupaModel model(data_, Config());
  Status st = LoadCheckpoint(path_, &model);
  EXPECT_FALSE(st.ok());
}

TEST_F(CheckpointTest, RejectsTruncatedFile) {
  SupaModel model(data_, Config());
  TrainSome(model, 100);
  ASSERT_TRUE(SaveCheckpoint(model, path_).ok());
  // Truncate to half.
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  SupaModel restored(data_, Config());
  EXPECT_EQ(LoadCheckpoint(path_, &restored).code(), StatusCode::kIOError);
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  SupaModel model(data_, Config());
  EXPECT_EQ(LoadCheckpoint("/nonexistent/supa.bin", &model).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace supa
