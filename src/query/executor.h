// Plan executor: walks the nodes reachable from the plan root in
// topological order, driving the existing table/graph/algo operators.
// Between nodes it polls cancel::Checkpoint(), so scripted queries running
// under the serving engine honor deadlines at plan-node granularity; each
// node runs under its own trace span and bumps query/exec_nodes.
//
// Join build-side reuse happens here: probes against the same (right
// node, key column, key pool) share one JoinBuild, counted in
// query/join_build_reuse.
#ifndef RINGO_QUERY_EXECUTOR_H_
#define RINGO_QUERY_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>

#include "graph/directed_graph.h"
#include "query/planner.h"
#include "table/table.h"
#include "util/result.h"

namespace ringo {
namespace query {

// A plan node's runtime value: exactly one of the two is set.
struct QueryValue {
  TablePtr table;
  std::shared_ptr<const DirectedGraph> graph;
};

// What a script's load() may do: open the named file, or fail with
// Status::PermissionDenied without touching the file system.
enum class LoadPolicy : char { kAllow, kRefuse };

struct ExecOptions {
  // Pool for loaded tables and produced columns; a fresh pool is created
  // when null and no bound table supplies one.
  std::shared_ptr<StringPool> pool;
  // External table bindings (kBind nodes), e.g. the serving layer's
  // session table. Must cover every binding the plan was made with.
  std::map<std::string, TablePtr> bindings;
  LoadPolicy load = LoadPolicy::kAllow;
};

// Executes the plan and returns the root node's value.
Result<QueryValue> ExecutePlan(const Plan& plan, const ExecOptions& opts);

}  // namespace query
}  // namespace ringo

#endif  // RINGO_QUERY_EXECUTOR_H_
