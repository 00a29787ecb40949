#include "nbclos/topology/dot.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "nbclos/util/check.hpp"

namespace nbclos {
namespace {

TEST(Dot, CrossbarExportsMergedGraph) {
  const auto net = build_crossbar(3);
  std::ostringstream os;
  write_dot(os, net);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph \"nbclos\""), std::string::npos);
  // Terminals as boxes with labels, switch as circle.
  EXPECT_NE(out.find("shape=box,label=\"t0\""), std::string::npos);
  EXPECT_NE(out.find("shape=circle,label=\"s1.0\""), std::string::npos);
  // Merged: exactly 3 undirected edges for 6 channels.
  std::size_t edges = 0;
  for (std::size_t pos = out.find(" -- "); pos != std::string::npos;
       pos = out.find(" -- ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, 3U);
}

TEST(Dot, DirectedExportKeepsAllChannels) {
  const auto net = build_crossbar(3);
  std::ostringstream os;
  DotOptions options;
  options.merge_bidirectional = false;
  options.graph_name = "xbar";
  write_dot(os, net, options);
  const std::string out = os.str();
  EXPECT_NE(out.find("digraph \"xbar\""), std::string::npos);
  std::size_t edges = 0;
  for (std::size_t pos = out.find(" -> "); pos != std::string::npos;
       pos = out.find(" -> ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, 6U);
}

TEST(Dot, FtreeExportMentionsEveryVertex) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const auto net = build_network(ft);
  std::ostringstream os;
  write_dot(os, net);
  const std::string out = os.str();
  for (std::uint32_t v = 0; v < net.vertex_count(); ++v) {
    std::ostringstream vertex;
    vertex << 'v' << v << " [";
    EXPECT_NE(out.find(vertex.str()), std::string::npos)
        << "vertex " << v << " missing";
  }
}

TEST(Dot, RejectsUnfinalizedNetwork) {
  Network net;
  net.add_vertex(VertexKind::kTerminal, 0, 0);
  std::ostringstream os;
  EXPECT_THROW(write_dot(os, net), precondition_error);
}

}  // namespace
}  // namespace nbclos
