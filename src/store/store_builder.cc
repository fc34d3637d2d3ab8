#include "store/store_builder.h"

#include <cstring>
#include <type_traits>
#include <utility>

#include "forest/compiled.h"
#include "store/checksum.h"
#include "util/file_io.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace gef {
namespace store {
namespace {

template <typename T>
void AppendPod(std::string* out, const T& pod) {
  static_assert(std::is_trivially_copyable<T>::value,
                "store sections hold only trivially copyable layouts");
  out->append(reinterpret_cast<const char*>(&pod), sizeof(pod));
}

template <typename T>
void AppendArray(std::string* out, const T* data, size_t count) {
  if (count > 0) {
    out->append(reinterpret_cast<const char*>(data), count * sizeof(T));
  }
}

Status ValidateName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("store section name must not be empty");
  }
  if (name.size() > kMaxSectionName) {
    return Status::InvalidArgument(
        "store section name '" + name + "' exceeds " +
        std::to_string(kMaxSectionName) + " bytes");
  }
  if (name.find('\0') != std::string::npos) {
    return Status::InvalidArgument("store section name contains NUL");
  }
  return Status::Ok();
}

}  // namespace

Status StoreBuilder::Add(uint32_t kind, const std::string& name,
                         uint64_t model_hash, uint64_t artifact_hash,
                         std::string payload) {
  if (Status s = ValidateName(name); !s.ok()) return s;
  if (payload.empty()) {
    // The reader rejects zero-length sections; refuse to build a store
    // it would not open.
    return Status::InvalidArgument(
        "store section '" + name + "' has an empty payload");
  }
  for (const Pending& section : sections_) {
    if (section.kind == kind && section.name == name) {
      return Status::InvalidArgument(
          "duplicate " + std::string(SectionKindName(kind)) +
          " section named '" + name + "'");
    }
  }
  Pending pending;
  pending.kind = kind;
  pending.name = name;
  pending.model_hash = model_hash;
  pending.artifact_hash = artifact_hash;
  pending.payload = std::move(payload);
  sections_.push_back(std::move(pending));
  return Status::Ok();
}

Status StoreBuilder::AddForest(const std::string& name, const Forest& forest) {
  if (Status s = ValidateName(name); !s.ok()) return s;
  const uint64_t hash = forest.ContentHash();

  // Section 1: metadata + feature names.
  std::string meta;
  ForestMetaHeader meta_header;
  meta_header.objective = static_cast<uint32_t>(forest.objective());
  meta_header.aggregation = static_cast<uint32_t>(forest.aggregation());
  meta_header.init_score = forest.init_score();
  meta_header.num_features = forest.num_features();
  meta_header.num_trees = forest.num_trees();
  const std::string names = Join(forest.feature_names(), "\n");
  meta_header.names_bytes = names.size();
  AppendPod(&meta, meta_header);
  meta.append(names);

  // Section 2: the original tree nodes, SoA, in-tree order — enough to
  // reconstruct a Forest whose text serialization is byte-identical.
  std::string nodes;
  ForestNodesHeader nodes_header;
  nodes_header.num_trees = forest.num_trees();
  size_t total_nodes = 0;
  for (const Tree& tree : forest.trees()) total_nodes += tree.num_nodes();
  nodes_header.num_nodes = total_nodes;
  AppendPod(&nodes, nodes_header);
  nodes.reserve(nodes.size() + (forest.num_trees() + 1) * sizeof(uint64_t) +
                total_nodes * (3 * sizeof(double) + 4 * sizeof(int32_t)));
  uint64_t offset = 0;
  AppendPod(&nodes, offset);
  for (const Tree& tree : forest.trees()) {
    offset += tree.num_nodes();
    AppendPod(&nodes, offset);
  }
  // 8-byte arrays first, then the int32 columns (see format.h).
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) AppendPod(&nodes, node.threshold);
  }
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) AppendPod(&nodes, node.gain);
  }
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) AppendPod(&nodes, node.value);
  }
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      AppendPod(&nodes, static_cast<int32_t>(node.feature));
    }
  }
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      AppendPod(&nodes, static_cast<int32_t>(node.left));
    }
  }
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      AppendPod(&nodes, static_cast<int32_t>(node.right));
    }
  }
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      AppendPod(&nodes, static_cast<int32_t>(node.count));
    }
  }

  // Section 3: the compiled SoA traversal arrays, so a reader serves
  // predictions straight off the mmap without paying a compile.
  const CompiledForest& compiled = forest.Compiled();
  const compiled::ForestView view = compiled.View();
  std::string flat;
  CompiledHeader compiled_header;
  compiled_header.num_nodes = compiled.num_nodes();
  compiled_header.num_trees = compiled.num_trees();
  compiled_header.num_features = compiled.num_features();
  compiled_header.base_score = view.base_score;
  compiled_header.objective = static_cast<uint32_t>(forest.objective());
  compiled_header.average = view.average ? 1 : 0;
  AppendPod(&flat, compiled_header);
  const size_t n = compiled.num_nodes();
  const size_t t = compiled.num_trees();
  flat.reserve(flat.size() + n * (4 * sizeof(double) + 2 * sizeof(int32_t)) +
               t * 2 * sizeof(int32_t));
  AppendArray(&flat, view.threshold, n);
  AppendArray(&flat, view.value, n);
  AppendArray(&flat, view.packed, 2 * n);
  AppendArray(&flat, view.feature, n);
  AppendArray(&flat, view.left, n);
  AppendArray(&flat, view.root, t);
  AppendArray(&flat, view.steps, t);

  if (Status s = Add(static_cast<uint32_t>(SectionKind::kForestMeta), name,
                     hash, hash, std::move(meta));
      !s.ok()) {
    return s;
  }
  if (Status s = Add(static_cast<uint32_t>(SectionKind::kForestNodes), name,
                     hash, hash, std::move(nodes));
      !s.ok()) {
    return s;
  }
  return Add(static_cast<uint32_t>(SectionKind::kForestCompiled), name, hash,
             hash, std::move(flat));
}

Status StoreBuilder::AddSurrogate(const std::string& name,
                                  const std::string& explanation_text) {
  return AddSurrogate(name, explanation_text, "spline_gam");
}

Status StoreBuilder::AddSurrogate(const std::string& name,
                                  const std::string& explanation_text,
                                  const std::string& backend) {
  // Each backend gets its own on-disk section kind so `gef_store
  // inspect` identifies the family without parsing the payload. The
  // mapping lives here (not in surrogate/registry) because kind values
  // are format, assigned append-only like everything in format.h.
  SectionKind kind;
  if (backend == "spline_gam") {
    kind = SectionKind::kSurrogate;
  } else if (backend == "boosted_fanova") {
    kind = SectionKind::kSurrogateFanova;
  } else {
    return Status::InvalidArgument("surrogate backend '" + backend +
                                   "' has no store section kind");
  }
  uint64_t model_hash = 0;
  bool found = false;
  for (const Pending& section : sections_) {
    if (section.kind == static_cast<uint32_t>(SectionKind::kForestMeta) &&
        section.name == name) {
      model_hash = section.model_hash;
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::FailedPrecondition(
        "surrogate '" + name + "' has no forest in this store; AddForest "
        "first so the surrogate inherits its model hash");
  }
  return Add(static_cast<uint32_t>(kind), name, model_hash,
             HashFnv1a64(explanation_text), explanation_text);
}

Status StoreBuilder::AddDatasetSummary(const std::string& name,
                                       const std::string& text) {
  return Add(static_cast<uint32_t>(SectionKind::kDatasetSummary), name,
             /*model_hash=*/0, HashFnv1a64(text), text);
}

std::string StoreBuilder::Serialize() const {
  // Lay out payload offsets, then emit header / payloads / table.
  std::vector<SectionEntry> table(sections_.size());
  uint64_t cursor = sizeof(StoreHeader);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const Pending& section = sections_[i];
    SectionEntry& entry = table[i];
    std::memset(&entry, 0, sizeof(entry));
    entry.kind = section.kind;
    entry.flags = 0;
    cursor = AlignUp(cursor);
    entry.offset = cursor;
    entry.payload_bytes = section.payload.size();
    entry.payload_checksum =
        SectionChecksum(section.payload.data(), section.payload.size());
    entry.model_hash = section.model_hash;
    entry.artifact_hash = section.artifact_hash;
    std::memcpy(entry.name, section.name.data(), section.name.size());
    cursor += section.payload.size();
  }
  const uint64_t table_offset = AlignUp(cursor);
  const uint64_t table_bytes = table.size() * sizeof(SectionEntry);

  StoreHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.format_version = kFormatVersion;
  header.header_bytes = sizeof(StoreHeader);
  header.section_count = sections_.size();
  header.table_offset = table_offset;
  header.file_bytes = table_offset + table_bytes;
  header.table_checksum = HashFnv1a64(table.data(), table_bytes);
  header.reserved = 0;
  header.header_checksum = HashFnv1a64(&header, kHeaderChecksumBytes);

  std::string out;
  out.reserve(header.file_bytes);
  AppendPod(&out, header);
  for (size_t i = 0; i < sections_.size(); ++i) {
    out.resize(table[i].offset, '\0');  // alignment padding
    out.append(sections_[i].payload);
  }
  out.resize(table_offset, '\0');
  AppendArray(&out, table.data(), table.size());
  GEF_CHECK_EQ(out.size(), header.file_bytes);
  return out;
}

Status StoreBuilder::WriteTo(const std::string& path) const {
  return WriteFileAtomic(path, Serialize());
}

}  // namespace store
}  // namespace gef
