// ringo_shell: an interactive command-line front-end over the Ringo
// engine — the C++ stand-in for the paper's Python REPL. Every command
// prints its wall-clock latency, demonstrating the paper's headline claim:
// a big-memory machine keeps the entire table↔graph workflow interactive.
//
//   $ ./ringo_shell              # interactive
//   $ ./ringo_shell script.rsh   # replay a command file
//
// Session (mirrors §4.1):
//   gen posts so                          # synthetic StackOverflow posts
//   select jp posts Tag = Java
//   select q jp Type = question
//   select a jp Type = answer
//   join qa q a AcceptedAnswerId PostId
//   tograph g qa UserId-1 UserId-2
//   pagerank s g
//   order s2 s Scr desc
//   show s2 10
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "algo/connectivity.h"
#include "algo/triangles.h"
#include "algo/transform.h"
#include "core/engine.h"
#include "gen/graph_gen.h"
#include "gen/stackoverflow_gen.h"
#include "graph/graph_io.h"
#include "table/table_io.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using ringo::Ringo;
using ringo::Status;

class Shell {
 public:
  // Executes one command line; returns false on "quit".
  bool Execute(const std::string& line) {
    const std::vector<std::string> tok = Tokenize(line);
    if (tok.empty() || tok[0][0] == '#') return true;
    const std::string& cmd = tok[0];
    if (cmd == "quit" || cmd == "exit") return false;

    ringo::Timer timer;
    const Status st = Dispatch(cmd, tok, line);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
    } else {
      std::printf("[%.3fs]\n", timer.ElapsedSeconds());
    }
    return true;
  }

 private:
  static std::vector<std::string> Tokenize(const std::string& line) {
    std::istringstream is(line);
    std::vector<std::string> tok;
    std::string t;
    while (is >> t) tok.push_back(t);
    return tok;
  }

  // The text after the first `skip` tokens (for predicates).
  static std::string Rest(const std::string& line,
                          const std::vector<std::string>& tok, size_t skip) {
    size_t pos = 0;
    for (size_t i = 0; i < skip; ++i) {
      pos = line.find(tok[i], pos) + tok[i].size();
    }
    while (pos < line.size() && std::isspace(line[pos])) ++pos;
    return line.substr(pos);
  }

  Status NeedArgs(const std::vector<std::string>& tok, size_t n,
                  const char* usage) {
    if (tok.size() < n) {
      return Status::InvalidArgument(std::string("usage: ") + usage);
    }
    return Status::OK();
  }

  ringo::Result<ringo::TablePtr> GetTable(const std::string& name) {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("no table named '" + name + "'");
    }
    return it->second;
  }

  ringo::Result<std::shared_ptr<ringo::DirectedGraph>> GetGraph(
      const std::string& name) {
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("no graph named '" + name + "'");
    }
    return it->second;
  }

  Status Dispatch(const std::string& cmd, const std::vector<std::string>& tok,
                  const std::string& line) {
    if (cmd == "help") return Help();
    if (cmd == "tables") {
      for (const auto& [name, t] : tables_) {
        std::printf("%-12s %lld rows  [%s]\n", name.c_str(),
                    static_cast<long long>(t->NumRows()),
                    t->schema().ToString().c_str());
      }
      return Status::OK();
    }
    if (cmd == "graphs") {
      for (const auto& [name, g] : graphs_) {
        std::printf("%-12s %lld nodes, %lld edges\n", name.c_str(),
                    static_cast<long long>(g->NumNodes()),
                    static_cast<long long>(g->NumEdges()));
      }
      return Status::OK();
    }

    if (cmd == "load") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 4, "load <name> <schema> <file>"));
      ringo::Schema schema;
      for (const auto& col : ringo::SplitFields(tok[2], ',')) {
        const auto parts = ringo::SplitFields(col, ':');
        if (parts.size() != 2) {
          return Status::InvalidArgument("schema must be name:type,...");
        }
        RINGO_ASSIGN_OR_RETURN(const ringo::ColumnType type,
                               ringo::ColumnTypeFromString(parts[1]));
        RINGO_RETURN_NOT_OK(schema.AddColumn(std::string(parts[0]), type));
      }
      // ".rtb" files dispatch to the checksummed binary format (the
      // schema argument is verified against the stored one); anything
      // else parses as headerless TSV.
      RINGO_ASSIGN_OR_RETURN(
          tables_[tok[1]],
          ringo::LoadTableAuto(schema, tok[3], engine_.pool()));
      return Status::OK();
    }
    if (cmd == "gen") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "gen <name> so|lj|tw [scale]"));
      const double scale = tok.size() > 3 ? std::atof(tok[3].c_str()) : 0.02;
      if (tok[2] == "so") {
        ringo::gen::StackOverflowConfig cfg;
        cfg.num_questions = static_cast<int64_t>(1000000 * scale);
        cfg.num_users = std::max<int64_t>(50, cfg.num_questions / 10);
        tables_[tok[1]] =
            ringo::gen::GenerateStackOverflowPosts(cfg, engine_.pool());
        return Status::OK();
      }
      std::vector<ringo::Edge> edges;
      if (tok[2] == "lj") {
        edges = ringo::gen::LiveJournalSimEdges(scale);
      } else if (tok[2] == "tw") {
        edges = ringo::gen::TwitterSimEdges(scale);
      } else {
        return Status::InvalidArgument("unknown generator '" + tok[2] + "'");
      }
      ringo::TablePtr t = engine_.NewTable(ringo::Schema{
          {"src", ringo::ColumnType::kInt}, {"dst", ringo::ColumnType::kInt}});
      t->ReserveRows(static_cast<int64_t>(edges.size()));
      for (const auto& [u, v] : edges) {
        t->mutable_column(0).AppendInt(u);
        t->mutable_column(1).AppendInt(v);
      }
      RINGO_RETURN_NOT_OK(
          t->SealAppendedRows(static_cast<int64_t>(edges.size())));
      tables_[tok[1]] = t;
      return Status::OK();
    }
    if (cmd == "show") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 2, "show <table> [rows]"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr t, GetTable(tok[1]));
      const int64_t n = tok.size() > 2 ? std::atoll(tok[2].c_str()) : 10;
      std::printf("%s", t->ToString(n).c_str());
      return Status::OK();
    }
    if (cmd == "select") {
      RINGO_RETURN_NOT_OK(
          NeedArgs(tok, 4, "select <out> <table> <col> <op> <value>"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr t, GetTable(tok[2]));
      RINGO_ASSIGN_OR_RETURN(tables_[tok[1]],
                             engine_.Select(t, Rest(line, tok, 3)));
      std::printf("%s: %lld rows\n", tok[1].c_str(),
                  static_cast<long long>(tables_[tok[1]]->NumRows()));
      return Status::OK();
    }
    if (cmd == "join") {
      RINGO_RETURN_NOT_OK(
          NeedArgs(tok, 6, "join <out> <left> <right> <lcol> <rcol>"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr l, GetTable(tok[2]));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr r, GetTable(tok[3]));
      RINGO_ASSIGN_OR_RETURN(tables_[tok[1]],
                             engine_.Join(l, r, tok[4], tok[5]));
      std::printf("%s: %lld rows\n", tok[1].c_str(),
                  static_cast<long long>(tables_[tok[1]]->NumRows()));
      return Status::OK();
    }
    if (cmd == "groupcount") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 4, "groupcount <out> <table> <col>"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr t, GetTable(tok[2]));
      RINGO_ASSIGN_OR_RETURN(
          tables_[tok[1]],
          t->GroupByAggregate({tok[3]}, {{"", ringo::AggFn::kCount, "n"}}));
      return Status::OK();
    }
    if (cmd == "order") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 4, "order <out> <table> <col> [asc|desc]"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr t, GetTable(tok[2]));
      const bool asc = tok.size() > 4 && tok[4] == "asc";
      RINGO_ASSIGN_OR_RETURN(tables_[tok[1]], t->OrderBy({tok[3]}, {asc}));
      return Status::OK();
    }
    if (cmd == "top") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 5, "top <out> <table> <col> <k>"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr t, GetTable(tok[2]));
      RINGO_ASSIGN_OR_RETURN(tables_[tok[1]],
                             t->TopK(tok[3], std::atoll(tok[4].c_str())));
      return Status::OK();
    }
    if (cmd == "tograph") {
      RINGO_RETURN_NOT_OK(
          NeedArgs(tok, 5, "tograph <g> <table> <srccol> <dstcol>"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr t, GetTable(tok[2]));
      RINGO_ASSIGN_OR_RETURN(ringo::DirectedGraph g,
                             engine_.ToGraph(t, tok[3], tok[4]));
      graphs_[tok[1]] = std::make_shared<ringo::DirectedGraph>(std::move(g));
      std::printf("%s: %lld nodes, %lld edges\n", tok[1].c_str(),
                  static_cast<long long>(graphs_[tok[1]]->NumNodes()),
                  static_cast<long long>(graphs_[tok[1]]->NumEdges()));
      return Status::OK();
    }
    if (cmd == "totable") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "totable <out> <g>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[2]));
      tables_[tok[1]] = engine_.ToEdgeTable(*g);
      return Status::OK();
    }
    if (cmd == "pagerank") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "pagerank <out> <g>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[2]));
      RINGO_ASSIGN_OR_RETURN(const ringo::NodeValues pr,
                             engine_.GetPageRank(*g));
      tables_[tok[1]] = engine_.TableFromMap(pr, "NodeId", "Scr");
      return Status::OK();
    }
    if (cmd == "hits") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "hits <out> <g>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[2]));
      RINGO_ASSIGN_OR_RETURN(const ringo::HitsScores h, engine_.GetHits(*g));
      tables_[tok[1] + "_hub"] = engine_.TableFromMap(h.hubs, "NodeId", "Hub");
      tables_[tok[1] + "_auth"] =
          engine_.TableFromMap(h.authorities, "NodeId", "Auth");
      std::printf("created %s_hub and %s_auth\n", tok[1].c_str(),
                  tok[1].c_str());
      return Status::OK();
    }
    if (cmd == "components") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "components <out> <g>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[2]));
      tables_[tok[1]] = engine_.TableFromMap(
          ringo::WeaklyConnectedComponents(*g), "NodeId", "Comp");
      return Status::OK();
    }
    if (cmd == "triangles") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 2, "triangles <g>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[1]));
      std::printf("triangles: %lld\n",
                  static_cast<long long>(ringo::ParallelTriangleCount(
                      ringo::ToUndirected(*g))));
      return Status::OK();
    }
    if (cmd == "summary") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 2, "summary <g>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[1]));
      std::printf("%s", engine_.SummaryTable(*g)->ToString(20).c_str());
      return Status::OK();
    }
    if (cmd == "degrees") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "degrees <out> <g>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[2]));
      tables_[tok[1]] = engine_.ToNodeTable(*g);
      return Status::OK();
    }
    if (cmd == "save") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "save <table> <file>"));
      RINGO_ASSIGN_OR_RETURN(ringo::TablePtr t, GetTable(tok[1]));
      const std::string& path = tok[2];
      if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".rtb") == 0) {
        return ringo::SaveTableBin(*t, path);
      }
      // Headerless, like the TSV that `load` parses, so a saved table
      // loads back.
      return engine_.SaveTableTSV(*t, tok[2], /*write_header=*/false);
    }
    if (cmd == "savegraph") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "savegraph <g> <file>"));
      RINGO_ASSIGN_OR_RETURN(auto g, GetGraph(tok[1]));
      return ringo::SaveGraphBinary(*g, tok[2]);
    }
    if (cmd == "loadgraph") {
      RINGO_RETURN_NOT_OK(NeedArgs(tok, 3, "loadgraph <g> <file>"));
      RINGO_ASSIGN_OR_RETURN(ringo::DirectedGraph g,
                             ringo::LoadGraphBinary(tok[2]));
      graphs_[tok[1]] = std::make_shared<ringo::DirectedGraph>(std::move(g));
      return Status::OK();
    }
    return Status::InvalidArgument("unknown command '" + cmd +
                                   "' (try: help)");
  }

  Status Help() {
    std::printf(
        "tables:  load <t> <schema> <file> | gen <t> so|lj|tw [scale] |\n"
        "         show <t> [n] | select <t2> <t> <pred> |\n"
        "         join <t3> <a> <b> <acol> <bcol> | groupcount <t2> <t> <col>\n"
        "         order <t2> <t> <col> [asc|desc] | top <t2> <t> <col> <k> |\n"
        "         save <t> <file> | tables\n"
        "graphs:  tograph <g> <t> <src> <dst> | totable <t> <g> |\n"
        "         pagerank <t> <g> | hits <t> <g> | components <t> <g> |\n"
        "         triangles <g> | summary <g> | degrees <t> <g> |\n"
        "         savegraph <g> <file> | loadgraph <g> <file> | graphs\n"
        "misc:    help | quit\n");
    return Status::OK();
  }

  Ringo engine_;
  std::map<std::string, ringo::TablePtr> tables_;
  std::map<std::string, std::shared_ptr<ringo::DirectedGraph>> graphs_;
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  std::istream* in = &std::cin;
  std::ifstream script;
  const bool interactive = argc < 2;
  if (!interactive) {
    script.open(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open script '%s'\n", argv[1]);
      return 1;
    }
    in = &script;
  }
  if (interactive) {
    std::printf("ringo shell — 'help' for commands, 'quit' to exit\n");
  }
  std::string line;
  while (true) {
    if (interactive) std::printf("ringo> ");
    if (!std::getline(*in, line)) break;
    if (!interactive) std::printf("ringo> %s\n", line.c_str());
    if (!shell.Execute(line)) break;
  }
  return 0;
}
