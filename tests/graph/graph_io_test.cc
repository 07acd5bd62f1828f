#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_support.h"

namespace ringo {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : files_) std::remove(f.c_str());
  }

  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    files_.push_back(path);
    return path;
  }

  std::vector<std::string> files_;
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  const DirectedGraph g = testing::RandomDirected(60, 300, 7);
  const std::string path = TempPath("g.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto back = LoadEdgeList(path);
  ASSERT_TRUE(back.ok()) << back.status();
  // Edge lists cannot carry isolated nodes; this graph has none w.h.p.
  EXPECT_EQ(back->NumEdges(), g.NumEdges());
  g.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(back->HasEdge(u, v)); });
}

TEST_F(GraphIoTest, EdgeListSkipsCommentsAndBlanks) {
  const std::string path = TempPath("c.txt");
  std::ofstream(path) << "# header\n\n1\t2\n# mid\n2\t3\n";
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2);
}

TEST_F(GraphIoTest, EdgeListRejectsMalformed) {
  // Malformed persisted data is Corruption (not InvalidArgument), and the
  // message carries the 1-based line number for debugging.
  const std::string path = TempPath("bad.txt");
  std::ofstream(path) << "1\t2\t3\n";
  {
    const Status s = LoadEdgeList(path).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("line 1"), std::string::npos) << s.ToString();
  }
  std::ofstream(path) << "1\t2\nx\ty\n";
  {
    const Status s = LoadEdgeList(path).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("line 2"), std::string::npos) << s.ToString();
  }
  EXPECT_TRUE(LoadEdgeList("/no/such/file").status().IsIOError());
}

TEST_F(GraphIoTest, BinaryRoundTripExact) {
  DirectedGraph g = testing::RandomDirected(80, 400, 3);
  g.AddNode(9999);  // Isolated nodes must survive the binary format.
  g.AddEdge(5, 5);  // Self-loop too.
  const std::string path = TempPath("g.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto back = LoadGraphBinary(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->SameStructure(g));
}

TEST_F(GraphIoTest, BinaryEmptyGraph) {
  DirectedGraph g;
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto back = LoadGraphBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumNodes(), 0);
  EXPECT_EQ(back->NumEdges(), 0);
}

TEST_F(GraphIoTest, BinaryRejectsForeignFile) {
  const std::string path = TempPath("foreign.bin");
  std::ofstream(path) << "this is not a graph";
  EXPECT_TRUE(LoadGraphBinary(path).status().IsIOError());
}

TEST_F(GraphIoTest, BinaryRejectsTruncation) {
  DirectedGraph g = testing::RandomDirected(20, 60, 1);
  const std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_TRUE(LoadGraphBinary(path).status().IsIOError());
}

// Writes a binary graph file word by word: magic, header, node blocks.
void WriteRawBinary(const std::string& path,
                    const std::vector<int64_t>& words) {
  std::ofstream out(path, std::ios::binary);
  out.write("RNGOGRF1", 8);
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(int64_t)));
}

// A run listing a neighbour twice would load as a parallel edge: the edge
// count would say 2 for one distinct edge, and deleting it would leave it.
TEST_F(GraphIoTest, BinaryRejectsRepeatedNeighbour) {
  const std::string path = TempPath("repeated.bin");
  // 2 nodes, 2 edges; node 1 -> [2, 2]; node 2 -> [].
  WriteRawBinary(path, {2, 2, 1, 2, 2, 2, 2, 0});
  EXPECT_TRUE(LoadGraphBinary(path).status().IsIOError());
}

// A degree the file cannot hold must fail before anything is sized by it.
TEST_F(GraphIoTest, BinaryRejectsDegreeBeyondFile) {
  const std::string path = TempPath("huge_degree.bin");
  const int64_t huge = int64_t{1} << 40;
  // 1 node, 2^40 edges; node 1 claims 2^40 out-neighbours and lists one.
  WriteRawBinary(path, {1, huge, 1, huge, 2});
  EXPECT_TRUE(LoadGraphBinary(path).status().IsIOError());
}

// Likewise a node count: 2^50 nodes in a header-only file.
TEST_F(GraphIoTest, BinaryRejectsNodeCountBeyondFile) {
  const std::string path = TempPath("huge_nodes.bin");
  WriteRawBinary(path, {int64_t{1} << 50, 0});
  EXPECT_TRUE(LoadGraphBinary(path).status().IsIOError());
}

TEST_F(GraphIoTest, BinaryLargeGraphFaithful) {
  const DirectedGraph g = testing::RandomDirected(500, 5000, 9);
  const std::string path = TempPath("big.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto back = LoadGraphBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->SameStructure(g));
}

}  // namespace
}  // namespace ringo
