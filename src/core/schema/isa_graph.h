// The ISA hierarchy (Section 6): a user-defined partial order <=_ISA on
// class identifiers, structured as a DAG whose connected components are
// the "hierarchies" of Invariant 6.2 (roots = classes without
// superclasses; an object can never migrate across hierarchies).
//
// IsaGraph implements the IsaProvider interface consumed by the subtyping
// relation, maintains reachability closures incrementally, and computes
// least common superclasses for the lub.
#ifndef TCHIMERA_CORE_SCHEMA_ISA_GRAPH_H_
#define TCHIMERA_CORE_SCHEMA_ISA_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/types/subtyping.h"

namespace tchimera {

class IsaGraph final : public IsaProvider {
 public:
  IsaGraph() = default;

  // Registers a class under its direct superclasses (which must already be
  // registered; cycles are impossible by construction). Fails with
  // AlreadyExists / NotFound.
  Status AddClass(const std::string& name,
                  const std::vector<std::string>& superclasses);

  bool Contains(std::string_view name) const;

  // IsaProvider:
  bool IsSubclassOf(std::string_view sub,
                    std::string_view super) const override;
  std::optional<std::string> LeastCommonSuperclass(
      std::string_view a, std::string_view b) const override;

  // All (transitive) superclasses of `name`, itself excluded, in
  // topological order from most to least specific (BFS layers).
  std::vector<std::string> Superclasses(std::string_view name) const;
  // All (transitive) subclasses of `name`, itself excluded.
  std::vector<std::string> Subclasses(std::string_view name) const;

  // The identifier of the connected component (hierarchy) `name` belongs
  // to: the lexicographically smallest root of the component. Two classes
  // admit object migration between them iff they share a hierarchy id
  // (Invariant 6.2).
  Result<std::string> HierarchyId(std::string_view name) const;

  // The root classes (no superclasses), sorted.
  std::vector<std::string> Roots() const;

  // All registered classes, sorted.
  std::vector<std::string> Classes() const;

 private:
  struct Node {
    std::vector<std::string> direct_supers;
    std::vector<std::string> direct_subs;
    std::set<std::string> ancestors;  // transitive supers, self excluded
    std::string hierarchy;            // component id (smallest root)
  };

  const Node* Find(std::string_view name) const;

  std::map<std::string, Node, std::less<>> nodes_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_SCHEMA_ISA_GRAPH_H_
