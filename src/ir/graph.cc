#include "ir/graph.h"

#include <algorithm>
#include <sstream>

#include "support/logging.h"
#include "support/string_util.h"

namespace disc {

bool TensorType::IsFullyStatic() const {
  for (int64_t d : dims) {
    if (d == kDynamicDim) return false;
  }
  return true;
}

int64_t TensorType::NumElements() const {
  DISC_CHECK(IsFullyStatic());
  int64_t n = 1;
  for (int64_t d : dims) n *= d;
  return n;
}

std::string TensorType::ToString() const {
  std::ostringstream out;
  out << DTypeName(dtype) << "[";
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i) out << "x";
    if (dims[i] == kDynamicDim) {
      out << "?";
    } else {
      out << dims[i];
    }
  }
  out << "]";
  return out.str();
}

int64_t Node::GetIntAttr(const std::string& key, int64_t fallback) const {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return fallback;
  return it->second.AsInt();
}

double Node::GetFloatAttr(const std::string& key, double fallback) const {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return fallback;
  return it->second.AsFloat();
}

const std::vector<int64_t>& Node::GetIntListAttr(const std::string& key) const {
  auto it = attrs_.find(key);
  DISC_CHECK(it != attrs_.end()) << "missing int-list attr '" << key
                                 << "' on op " << OpName(kind_);
  return it->second.AsIntList();
}

DType Node::GetDTypeAttr(const std::string& key) const {
  auto it = attrs_.find(key);
  DISC_CHECK(it != attrs_.end()) << "missing dtype attr '" << key << "'";
  return it->second.AsDType();
}

const Tensor& Node::GetTensorAttr(const std::string& key) const {
  auto it = attrs_.find(key);
  DISC_CHECK(it != attrs_.end()) << "missing tensor attr '" << key << "'";
  return it->second.AsTensor();
}

std::string Node::ToString() const {
  std::ostringstream out;
  out << JoinMapped(outputs_, ", ",
                    [](const Value* v) { return "%" + std::to_string(v->id()); })
      << " = " << OpName(kind_) << "(";
  out << JoinMapped(operands_, ", ", [](const Value* v) {
    return "%" + std::to_string(v->id());
  });
  out << ")";
  if (!attrs_.empty()) {
    out << " {";
    bool first = true;
    for (const auto& [key, value] : attrs_) {
      if (!first) out << ", ";
      out << key << " = " << value.ToString();
      first = false;
    }
    out << "}";
  }
  out << " : "
      << JoinMapped(outputs_, ", ",
                    [](const Value* v) { return v->type().ToString(); });
  return out.str();
}

Value* Graph::NewValue(const std::string& name, TensorType type) {
  auto value = std::make_unique<Value>();
  value->id_ = next_value_id_++;
  value->name_ = name.empty() ? "v" + std::to_string(value->id_) : name;
  value->type_ = std::move(type);
  value->graph_ = this;
  values_.push_back(std::move(value));
  return values_.back().get();
}

Value* Graph::AddInput(const std::string& name, TensorType type) {
  Value* v = NewValue(name, std::move(type));
  inputs_.push_back(v);
  return v;
}

Node* Graph::CreateNode(OpKind kind, std::vector<Value*> operands,
                        AttrMap attrs, std::vector<TensorType> output_types) {
  const OpInfo& info = GetOpInfo(kind);
  DISC_CHECK_GE(static_cast<int>(operands.size()), info.min_operands)
      << "op " << info.name;
  if (info.max_operands >= 0) {
    DISC_CHECK_LE(static_cast<int>(operands.size()), info.max_operands)
        << "op " << info.name;
  }
  auto node = std::make_unique<Node>();
  node->id_ = next_node_id_++;
  node->kind_ = kind;
  node->operands_ = std::move(operands);
  node->attrs_ = std::move(attrs);
  for (Value* operand : node->operands_) {
    DISC_CHECK(operand != nullptr);
    DISC_CHECK(operand->graph_ == this) << "operand from another graph";
    operand->users_.push_back(node.get());
  }
  for (size_t i = 0; i < output_types.size(); ++i) {
    Value* out = NewValue("", std::move(output_types[i]));
    out->producer_ = node.get();
    out->producer_index_ = static_cast<int>(i);
    node->outputs_.push_back(out);
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

void Graph::SetOutputs(std::vector<Value*> outputs) {
  for (Value* v : outputs) {
    DISC_CHECK(v != nullptr && v->graph_ == this);
  }
  outputs_ = std::move(outputs);
}

std::vector<Node*> Graph::nodes() const {
  std::vector<Node*> result;
  result.reserve(nodes_.size());
  for (const auto& n : nodes_) result.push_back(n.get());
  return result;
}

void Graph::ReplaceAllUsesWith(Value* from, Value* to) {
  DISC_CHECK(from->graph_ == this && to->graph_ == this);
  if (from == to) return;
  // Move users over.
  for (Node* user : from->users_) {
    for (Value*& operand : user->operands_) {
      if (operand == from) {
        operand = to;
        to->users_.push_back(user);
      }
    }
  }
  from->users_.clear();
  for (Value*& out : outputs_) {
    if (out == from) out = to;
  }
}

void Graph::SetOperand(Node* node, int index, Value* value) {
  DISC_CHECK(value->graph_ == this);
  Value* old = node->operands_.at(index);
  node->operands_[index] = value;
  value->users_.push_back(node);
  // Remove one matching use entry.
  auto it = std::find(old->users_.begin(), old->users_.end(), node);
  DISC_CHECK(it != old->users_.end());
  old->users_.erase(it);
}

Status Graph::EraseNode(Node* node) {
  for (Value* out : node->outputs_) {
    if (!out->users_.empty()) {
      return Status::InvalidArgument("EraseNode: output still has users");
    }
    for (Value* graph_out : outputs_) {
      if (graph_out == out) {
        return Status::InvalidArgument("EraseNode: output is a graph output");
      }
    }
  }
  // Unregister uses of operands.
  for (Value* operand : node->operands_) {
    auto it = std::find(operand->users_.begin(), operand->users_.end(), node);
    DISC_CHECK(it != operand->users_.end());
    operand->users_.erase(it);
  }
  auto it = std::find_if(nodes_.begin(), nodes_.end(),
                         [&](const auto& n) { return n.get() == node; });
  DISC_CHECK(it != nodes_.end());
  nodes_.erase(it);
  return Status::OK();
}

int64_t Graph::RemoveDeadNodes() {
  int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    // Iterate backwards so chains die in one sweep.
    for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
      Node* node = it->get();
      bool dead = true;
      for (Value* out : node->outputs_) {
        if (!out->users_.empty()) dead = false;
        for (Value* graph_out : outputs_) {
          if (graph_out == out) dead = false;
        }
      }
      if (dead) {
        DISC_CHECK_OK(EraseNode(node));
        ++removed;
        changed = true;
        break;  // iterators invalidated
      }
    }
  }
  return removed;
}

std::vector<Node*> Graph::TopologicalOrder() const {
  // Kahn's algorithm over dense arrays indexed by Node::id(). `order` is
  // also the FIFO queue: nodes are appended when they become ready and
  // emitted in that order. A user consuming several outputs of one
  // producer, or one output several times, counts that producer once;
  // `mark` deduplicates in first-seen order so the order is deterministic.
  std::vector<Node*> order;
  order.reserve(nodes_.size());
  std::vector<int> pending(next_node_id_, 0);
  std::vector<int> mark(next_node_id_, -1);
  int stamp = 0;
  for (const auto& n : nodes_) {
    int count = 0;
    for (Value* operand : n->operands_) {
      Node* producer = operand->producer();
      if (producer != nullptr && mark[producer->id_] != stamp) {
        mark[producer->id_] = stamp;
        ++count;
      }
    }
    ++stamp;
    pending[n->id_] = count;
    if (count == 0) order.push_back(n.get());
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const Node* node = order[head];
    for (Value* out : node->outputs_) {
      for (Node* user : out->users_) {
        if (mark[user->id_] == stamp) continue;
        mark[user->id_] = stamp;
        if (--pending[user->id_] == 0) order.push_back(user);
      }
    }
    ++stamp;
  }
  DISC_CHECK_EQ(order.size(), nodes_.size()) << "graph has a cycle";
  return order;
}

std::unique_ptr<Graph> Graph::Clone(
    std::unordered_map<const Value*, Value*>* value_map) const {
  auto clone = std::make_unique<Graph>(name_);
  std::vector<Value*> map(next_value_id_, nullptr);  // by Value::id()
  for (const Value* input : inputs_) {
    map[input->id_] = clone->AddInput(input->name(), input->type());
  }
  for (Node* node : TopologicalOrder()) {
    std::vector<Value*> operands;
    operands.reserve(node->operands().size());
    for (Value* operand : node->operands()) {
      Value* mapped = map[operand->id_];
      DISC_CHECK(mapped != nullptr);
      operands.push_back(mapped);
    }
    std::vector<TensorType> out_types;
    out_types.reserve(node->outputs().size());
    for (Value* out : node->outputs()) out_types.push_back(out->type());
    Node* new_node = clone->CreateNode(node->kind(), std::move(operands),
                                       node->attrs(), std::move(out_types));
    for (size_t i = 0; i < node->outputs().size(); ++i) {
      map[node->outputs_[i]->id_] = new_node->outputs_[i];
    }
  }
  std::vector<Value*> new_outputs;
  new_outputs.reserve(outputs_.size());
  for (const Value* out : outputs_) {
    DISC_CHECK(map[out->id_] != nullptr);
    new_outputs.push_back(map[out->id_]);
  }
  clone->SetOutputs(std::move(new_outputs));
  if (value_map != nullptr) {
    value_map->clear();
    for (const auto& value : values_) {
      Value* mapped = map[value->id_];
      if (mapped != nullptr) (*value_map)[value.get()] = mapped;
    }
  }
  return clone;
}

std::string Graph::ToString() const {
  std::ostringstream out;
  out << "graph " << (name_.empty() ? "<anon>" : name_) << " (";
  out << JoinMapped(inputs_, ", ", [](const Value* v) {
    return "%" + std::to_string(v->id()) + ": " + v->type().ToString();
  });
  out << ") {\n";
  for (Node* node : TopologicalOrder()) {
    out << "  " << node->ToString() << "\n";
  }
  out << "  return "
      << JoinMapped(outputs_, ", ",
                    [](const Value* v) { return "%" + std::to_string(v->id()); })
      << "\n}";
  return out.str();
}

}  // namespace disc
