#include "core/schema/isa_graph.h"

#include <algorithm>
#include <deque>

namespace tchimera {

const IsaGraph::Node* IsaGraph::Find(std::string_view name) const {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

Status IsaGraph::AddClass(const std::string& name,
                          const std::vector<std::string>& superclasses) {
  if (nodes_.count(name) != 0) {
    return Status::AlreadyExists("class " + name + " already in ISA graph");
  }
  Node node;
  for (const std::string& super : superclasses) {
    auto it = nodes_.find(super);
    if (it == nodes_.end()) {
      return Status::NotFound("superclass " + super + " of " + name +
                              " is not defined");
    }
    node.direct_supers.push_back(super);
    node.ancestors.insert(super);
    node.ancestors.insert(it->second.ancestors.begin(),
                          it->second.ancestors.end());
  }
  // Hierarchy id: the class starts a new component when it has no supers;
  // otherwise it joins (and possibly merges) its supers' components.
  if (superclasses.empty()) {
    node.hierarchy = name;
  } else {
    std::set<std::string> merged;
    for (const std::string& super : superclasses) {
      merged.insert(nodes_.at(super).hierarchy);
    }
    node.hierarchy = *merged.begin();
    if (merged.size() > 1) {
      // Two previously separate hierarchies are being connected; relabel.
      for (auto& [unused, n] : nodes_) {
        if (merged.count(n.hierarchy) != 0) n.hierarchy = node.hierarchy;
      }
    }
  }
  for (const std::string& super : superclasses) {
    nodes_.at(super).direct_subs.push_back(name);
  }
  nodes_.emplace(name, std::move(node));
  return Status::OK();
}

bool IsaGraph::Contains(std::string_view name) const {
  return Find(name) != nullptr;
}

bool IsaGraph::IsSubclassOf(std::string_view sub,
                            std::string_view super) const {
  if (sub == super) return true;  // reflexive, also for unknown names
  const Node* node = Find(sub);
  if (node == nullptr) return false;
  return node->ancestors.find(std::string(super)) != node->ancestors.end();
}

std::optional<std::string> IsaGraph::LeastCommonSuperclass(
    std::string_view a, std::string_view b) const {
  if (a == b) return std::string(a);
  const Node* na = Find(a);
  const Node* nb = Find(b);
  if (na == nullptr || nb == nullptr) return std::nullopt;
  // Common superclasses (each class counts as a superclass of itself for
  // the purpose of the lub: lub(c, sub-of-c) = c).
  std::set<std::string> sa = na->ancestors;
  sa.insert(std::string(a));
  std::set<std::string> sb = nb->ancestors;
  sb.insert(std::string(b));
  std::vector<std::string> common;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(common));
  if (common.empty()) return std::nullopt;
  // The least element, if one exists: a common superclass that is
  // <=_ISA every other common superclass.
  for (const std::string& c : common) {
    bool least = true;
    for (const std::string& d : common) {
      if (!IsSubclassOf(c, d)) {
        least = false;
        break;
      }
    }
    if (least) return c;
  }
  return std::nullopt;  // only incomparable minimal common superclasses
}

std::vector<std::string> IsaGraph::Superclasses(std::string_view name) const {
  const Node* node = Find(name);
  if (node == nullptr) return {};
  // BFS for most-to-least specific layering.
  std::vector<std::string> out;
  std::set<std::string> seen;
  std::deque<std::string> queue(node->direct_supers.begin(),
                                node->direct_supers.end());
  while (!queue.empty()) {
    std::string cur = std::move(queue.front());
    queue.pop_front();
    if (!seen.insert(cur).second) continue;
    const Node* n = Find(cur);
    if (n != nullptr) {
      queue.insert(queue.end(), n->direct_supers.begin(),
                   n->direct_supers.end());
    }
    out.push_back(std::move(cur));
  }
  return out;
}

std::vector<std::string> IsaGraph::Subclasses(std::string_view name) const {
  const Node* node = Find(name);
  if (node == nullptr) return {};
  std::vector<std::string> out;
  std::set<std::string> seen;
  std::deque<std::string> queue(node->direct_subs.begin(),
                                node->direct_subs.end());
  while (!queue.empty()) {
    std::string cur = std::move(queue.front());
    queue.pop_front();
    if (!seen.insert(cur).second) continue;
    const Node* n = Find(cur);
    if (n != nullptr) {
      queue.insert(queue.end(), n->direct_subs.begin(),
                   n->direct_subs.end());
    }
    out.push_back(std::move(cur));
  }
  return out;
}

Result<std::string> IsaGraph::HierarchyId(std::string_view name) const {
  const Node* node = Find(name);
  if (node == nullptr) {
    return Status::NotFound("class " + std::string(name) +
                            " is not in the ISA graph");
  }
  return node->hierarchy;
}

std::vector<std::string> IsaGraph::Roots() const {
  std::vector<std::string> out;
  for (const auto& [name, node] : nodes_) {
    if (node.direct_supers.empty()) out.push_back(name);
  }
  return out;
}

std::vector<std::string> IsaGraph::Classes() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [name, unused] : nodes_) out.push_back(name);
  return out;
}

}  // namespace tchimera
