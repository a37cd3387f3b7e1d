#include "triggers/trigger.h"

#include <cctype>
#include <cstdlib>

#include "common/string_util.h"
#include "query/parser.h"

namespace tchimera {

const char* TriggerEventName(TriggerEvent event) {
  switch (event) {
    case TriggerEvent::kCreate:
      return "create";
    case TriggerEvent::kUpdate:
      return "update";
    case TriggerEvent::kMigrate:
      return "migrate";
    case TriggerEvent::kDelete:
      return "delete";
  }
  return "?";
}

Result<Trigger> Trigger::Parse(std::string_view text) {
  std::string_view rest = StripWhitespace(text);
  auto take_word = [&rest]() -> std::string {
    rest = StripWhitespace(rest);
    size_t end = 0;
    while (end < rest.size() &&
           !std::isspace(static_cast<unsigned char>(rest[end]))) {
      ++end;
    }
    std::string word(rest.substr(0, end));
    rest = rest.substr(end);
    return word;
  };
  if (take_word() != "trigger") {
    return Status::InvalidArgument(
        "expected 'trigger NAME on EVENT [of CLASS[.ATTR]] do <stmt>'");
  }
  Trigger t;
  t.name = take_word();
  if (!IsIdentifier(t.name)) {
    return Status::InvalidArgument("bad trigger name '" + t.name + "'");
  }
  if (take_word() != "on") {
    return Status::InvalidArgument("expected 'on' after the trigger name");
  }
  std::string event = take_word();
  if (event == "create") {
    t.event = TriggerEvent::kCreate;
  } else if (event == "update") {
    t.event = TriggerEvent::kUpdate;
  } else if (event == "migrate") {
    t.event = TriggerEvent::kMigrate;
  } else if (event == "delete") {
    t.event = TriggerEvent::kDelete;
  } else {
    return Status::InvalidArgument(
        "unknown trigger event '" + event +
        "' (expected create | update | migrate | delete)");
  }
  std::string word = take_word();
  if (word == "of") {
    std::string target = take_word();
    size_t dot = target.find('.');
    if (dot == std::string::npos) {
      t.class_filter = target;
    } else {
      t.class_filter = target.substr(0, dot);
      t.attr_filter = target.substr(dot + 1);
      if (t.event != TriggerEvent::kUpdate) {
        return Status::InvalidArgument(
            "attribute filters only apply to update triggers");
      }
    }
    if (!IsIdentifier(t.class_filter) ||
        (!t.attr_filter.empty() && !IsIdentifier(t.attr_filter))) {
      return Status::InvalidArgument("bad 'of' target '" + target + "'");
    }
    word = take_word();
  }
  if (word != "do") {
    return Status::InvalidArgument("expected 'do' before the action");
  }
  t.action = std::string(StripWhitespace(rest));
  if (t.action.empty()) {
    return Status::InvalidArgument("trigger '" + t.name +
                                   "' has an empty action");
  }
  return t;
}

std::string Trigger::ToString() const {
  std::string out = "trigger " + name + " on " + TriggerEventName(event);
  if (!class_filter.empty()) {
    out += " of " + class_filter;
    if (!attr_filter.empty()) out += "." + attr_filter;
  }
  out += " do " + action;
  return out;
}

Status ActiveDatabase::DefineTrigger(std::string_view text) {
  TCH_ASSIGN_OR_RETURN(Trigger t, Trigger::Parse(text));
  for (const Trigger& existing : triggers_) {
    if (existing.name == t.name) {
      return Status::AlreadyExists("trigger '" + t.name +
                                   "' already defined");
    }
  }
  // The action must at least parse now, not at firing time. It may not
  // itself be a definition: those publish only through the engine's
  // exclusive path, never from inside a cascade.
  std::string probe = t.action;
  size_t pos;
  while ((pos = probe.find("$self")) != std::string::npos) {
    probe.replace(pos, 5, "i1");
  }
  TCH_ASSIGN_OR_RETURN(Statement action, ParseStatement(probe));
  if (action.kind == Statement::Kind::kDefineTrigger ||
      action.kind == Statement::Kind::kDefineConstraint) {
    return Status::InvalidArgument("trigger '" + t.name +
                                   "' action cannot define a trigger or "
                                   "constraint");
  }
  triggers_.push_back(std::move(t));
  return Status::OK();
}

Status ActiveDatabase::DropTrigger(std::string_view name) {
  for (auto it = triggers_.begin(); it != triggers_.end(); ++it) {
    if (it->name == name) {
      triggers_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no trigger named '" + std::string(name) + "'");
}

std::vector<std::string> ActiveDatabase::TriggerNames() const {
  std::vector<std::string> out;
  out.reserve(triggers_.size());
  for (const Trigger& t : triggers_) out.push_back(t.name);
  return out;
}

std::vector<std::string> ActiveDatabase::DefinitionStatements() const {
  std::vector<std::string> out;
  out.reserve(triggers_.size() + constraints_.size());
  for (const Trigger& t : triggers_) out.push_back(t.ToString());
  for (const std::string& name : constraints_.Names()) {
    out.push_back(constraints_.Find(name)->ToString());
  }
  return out;
}

bool ActiveDatabase::Matches(const Trigger& trigger,
                             const Event& event) const {
  if (trigger.event != event.kind) return false;
  if (!trigger.attr_filter.empty() && trigger.attr_filter != event.attr) {
    return false;
  }
  if (trigger.class_filter.empty()) return true;
  const Object* obj = db_->GetObject(event.subject);
  if (obj == nullptr) return false;
  std::optional<std::string> cls = obj->CurrentClass();
  if (!cls.has_value()) return false;
  // Subclass closure: a trigger `of person` fires for employees.
  return db_->isa().IsSubclassOf(*cls, trigger.class_filter);
}

Result<std::string> ActiveDatabase::Execute(std::string_view statement) {
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  return ExecuteStatement(&stmt);
}

Result<std::string> ActiveDatabase::ExecuteStatement(Statement* stmt) {
  // The Section 7 definition forms are handled by this facade directly.
  if (stmt->kind == Statement::Kind::kDefineTrigger) {
    TCH_RETURN_IF_ERROR(DefineTrigger(*stmt->definition_text));
    return "trigger " + triggers_.back().name + " defined";
  }
  if (stmt->kind == Statement::Kind::kDefineConstraint) {
    TCH_RETURN_IF_ERROR(constraints_.Define(*stmt->definition_text));
    return "constraint " + constraints_.Names().back() + " defined";
  }
  std::vector<std::string> chain;
  TCH_ASSIGN_OR_RETURN(std::string out, ExecuteInternal(stmt, &chain));
  // `check` additionally evaluates the registered constraints.
  if (stmt->kind == Statement::Kind::kCheck && constraints_.size() > 0) {
    TCH_RETURN_IF_ERROR(constraints_.CheckAll(*db_));
    out += " (and " + std::to_string(constraints_.size()) +
           " temporal constraints hold)";
  }
  return out;
}

Result<std::string> ActiveDatabase::ExecuteInternal(
    Statement* stmt, std::vector<std::string>* chain) {
  if (chain->size() > kMaxCascadeDepth) {
    std::string path = Join(*chain, " -> ");
    return Status::FailedPrecondition(
        "trigger cascade exceeded depth " +
        std::to_string(kMaxCascadeDepth) +
        " (non-terminating rule set? chain: " + path + ")");
  }
  TCH_ASSIGN_OR_RETURN(std::string out, interp_.ExecuteStatement(stmt));

  // Derive the event (if any) from the executed statement.
  Event event;
  switch (stmt->kind) {
    case Statement::Kind::kCreate: {
      event.kind = TriggerEvent::kCreate;
      // CREATE's output is the new oid ("i<n>").
      event.subject = Oid{std::strtoull(out.c_str() + 1, nullptr, 10)};
      break;
    }
    case Statement::Kind::kUpdate:
      event.kind = TriggerEvent::kUpdate;
      event.subject = stmt->update->oid;
      event.attr = stmt->update->attr;
      break;
    case Statement::Kind::kMigrate:
      event.kind = TriggerEvent::kMigrate;
      event.subject = stmt->migrate->oid;
      break;
    case Statement::Kind::kDelete:
      event.kind = TriggerEvent::kDelete;
      event.subject = stmt->del->oid;
      break;
    default:
      return out;  // queries and clock ops fire nothing
  }
  TCH_RETURN_IF_ERROR(Fire(event, chain));
  return out;
}

Status ActiveDatabase::Fire(const Event& event,
                            std::vector<std::string>* chain) {
  // Snapshot the matching set first: actions may define further triggers.
  std::vector<Trigger> matching;
  for (const Trigger& t : triggers_) {
    if (Matches(t, event)) matching.push_back(t);
  }
  for (const Trigger& t : matching) {
    ++fired_;
    std::string action = t.action;
    std::string self = event.subject.ToString();
    size_t pos;
    while ((pos = action.find("$self")) != std::string::npos) {
      action.replace(pos, 5, self);
    }
    Result<Statement> parsed = ParseStatement(action);
    chain->push_back(t.name);
    Result<std::string> r = parsed.ok() ? ExecuteInternal(&*parsed, chain)
                                        : parsed.status();
    chain->pop_back();
    if (!r.ok()) {
      // A cascade-depth error already names the whole chain; propagate it
      // unwrapped instead of nesting one frame per level.
      if (r.status().message().find("trigger cascade exceeded") !=
          std::string::npos) {
        return r.status();
      }
      return Status::FailedPrecondition("trigger '" + t.name +
                                        "' action failed: " +
                                        r.status().ToString());
    }
  }
  return Status::OK();
}

}  // namespace tchimera
