// The one tmp + rename writer (util/atomic_file.h): a write either
// replaces the file whole or leaves the previous one untouched, with no
// staging file left behind and an errno-derived message on failure.

#include "util/atomic_file.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace setcover {
namespace {

// PID-qualified: ctest runs each case of this binary in its own process
// on the same TempDir.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/atomic_" + std::to_string(getpid()) + "_" +
         name;
}

std::string Contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool WriteText(const std::string& path, const std::string& text,
               std::string* error) {
  return WriteFileAtomically(
      path,
      [&text](std::FILE* f) { return WriteBytes(f, text.data(), text.size()); },
      error);
}

TEST(AtomicFileTest, ReplacesTheFileWhole) {
  const std::string path = TempPath("replace.bin");
  std::string error;
  ASSERT_TRUE(WriteText(path, "first", &error)) << error;
  ASSERT_TRUE(WriteText(path, "second, longer", &error)) << error;
  EXPECT_EQ(Contents(path), "second, longer");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFileTest, FailingBodyLeavesThePreviousFileAndNoTemp) {
  const std::string path = TempPath("body.bin");
  std::string error;
  ASSERT_TRUE(WriteText(path, "previous", &error)) << error;
  // The body writes part of a new file, then fails.
  EXPECT_FALSE(WriteFileAtomically(
      path,
      [](std::FILE* f) {
        WriteBytes(f, "torn", 4);
        return false;
      },
      &error));
  EXPECT_NE(error.find("write to " + path + ".tmp failed: "),
            std::string::npos)
      << error;
  EXPECT_EQ(Contents(path), "previous");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFileTest, FailingRenameReturnsAnErrnoDerivedError) {
  // The target is a directory, so the rename of the staging file over
  // it fails with EISDIR after the body, flush and close succeeded.
  const std::string path = TempPath("dir_target");
  ASSERT_EQ(::mkdir(path.c_str(), 0700), 0);
  std::string error;
  EXPECT_FALSE(WriteText(path, "body", &error));
  EXPECT_NE(error.find("rename to " + path + " failed: Is a directory"),
            std::string::npos)
      << error;
  EXPECT_FALSE(Exists(path + ".tmp"));
  ::rmdir(path.c_str());
}

TEST(AtomicFileTest, UncreatableTempReturnsAnErrnoDerivedError) {
  std::string error;
  EXPECT_FALSE(WriteText("/nonexistent-dir/deep/f.bin", "body", &error));
  EXPECT_NE(error.find("cannot create /nonexistent-dir/deep/f.bin.tmp: No "
                       "such file or directory"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace setcover
