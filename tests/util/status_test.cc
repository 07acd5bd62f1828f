#include "util/status.h"

#include <gtest/gtest.h>

#include "util/result.h"

namespace ringo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no column named 'x'");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no column named 'x'");
  EXPECT_EQ(s.ToString(), "Not found: no column named 'x'");
}

TEST(StatusTest, EachFactoryMapsToItsCode) {
  EXPECT_TRUE(Status::InvalidArgument("m").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("m").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("m").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("m").IsOutOfRange());
  EXPECT_TRUE(Status::TypeMismatch("m").IsTypeMismatch());
  EXPECT_TRUE(Status::IOError("m").IsIOError());
  EXPECT_TRUE(Status::NotImplemented("m").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("m").IsInternal());
  EXPECT_TRUE(Status::DeadlineExceeded("m").IsDeadlineExceeded());
  EXPECT_TRUE(Status::Overloaded("m").IsOverloaded());
  EXPECT_TRUE(Status::PermissionDenied("m").IsPermissionDenied());
}

TEST(StatusTest, ServingCodesRenderTheirNames) {
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "Deadline exceeded: late");
  EXPECT_EQ(Status::Overloaded("full").ToString(), "Overloaded: full");
  EXPECT_FALSE(Status::DeadlineExceeded("late").IsOverloaded());
  EXPECT_FALSE(Status::Overloaded("full").IsDeadlineExceeded());
  EXPECT_EQ(Status::PermissionDenied("no files").ToString(),
            "Permission denied: no files");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::IOError("disk");
  Status copy = s;
  EXPECT_TRUE(copy.IsIOError());
  EXPECT_EQ(copy.message(), "disk");
  EXPECT_TRUE(s.IsIOError());  // Source intact after copy.

  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsIOError());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::OutOfRange("x"); };
  auto outer = [&]() -> Status {
    RINGO_RETURN_NOT_OK(fails());
    return Status::Internal("unreached");
  };
  EXPECT_TRUE(outer().IsOutOfRange());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto provide = [](bool ok) -> Result<int> {
    if (ok) return 5;
    return Status::Internal("boom");
  };
  auto use = [&](bool ok) -> Result<int> {
    RINGO_ASSIGN_OR_RETURN(const int v, provide(ok));
    return v * 2;
  };
  EXPECT_EQ(use(true).value(), 10);
  EXPECT_TRUE(use(false).status().IsInternal());
}

}  // namespace
}  // namespace ringo
