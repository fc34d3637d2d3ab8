#ifndef GEF_STORE_STORE_BUILDER_H_
#define GEF_STORE_STORE_BUILDER_H_

// Writer half of the binary model store (DESIGN.md §3.17). Sections are
// staged in memory — AddForest serializes a Forest into its meta /
// nodes / compiled triple, AddSurrogate and AddDatasetSummary attach
// text artifacts keyed to a forest's content hash — then WriteTo packs
// everything into one file through WriteFileAtomic (util/file_io.h), the
// write path every saved artifact shares: the bytes go to a guarded temp
// path, are fsync'd, and only then rename(2)d over the destination, so a
// crashed or interrupted pack never clobbers a live store with a partial
// one.

#include <cstdint>
#include <string>
#include <vector>

#include "forest/forest.h"
#include "store/format.h"
#include "util/status.h"

namespace gef {
namespace store {

class StoreBuilder {
 public:
  /// Serializes `forest` into three sections under `name`: the metadata
  /// + feature names, the full node arrays (byte-exact reconstruction),
  /// and the compiled SoA traversal arrays (zero-copy predict path).
  /// The forest's ContentHash() becomes the sections' on-disk identity.
  /// Fails on an empty / overlong (> kMaxSectionName) / duplicate name.
  Status AddForest(const std::string& name, const Forest& forest);

  /// Attaches a serialized GEF explanation (gef/explanation_io text) as
  /// the cached surrogate for the forest named `name`, which must have
  /// been added first — the surrogate inherits its model_hash so the
  /// serving layer can trust the pairing without re-fitting. The
  /// two-argument form packs the default spline_gam backend; the
  /// `backend` overload selects the section kind per backend name
  /// (spline_gam → kSurrogate, boosted_fanova → kSurrogateFanova) and
  /// rejects backends with no registered on-disk kind.
  Status AddSurrogate(const std::string& name,
                      const std::string& explanation_text);
  Status AddSurrogate(const std::string& name,
                      const std::string& explanation_text,
                      const std::string& backend);

  /// Attaches free-form dataset summary text under `name`.
  Status AddDatasetSummary(const std::string& name, const std::string& text);

  size_t num_sections() const { return sections_.size(); }

  /// The complete store image: header, aligned payloads, section table.
  /// Deterministic for identical inputs. Exposed so tests can corrupt
  /// stores programmatically without touching the filesystem.
  std::string Serialize() const;

  /// Crash-safe pack: WriteFileAtomic(path, Serialize()).
  Status WriteTo(const std::string& path) const;

 private:
  struct Pending {
    uint32_t kind = 0;
    std::string name;
    uint64_t model_hash = 0;
    uint64_t artifact_hash = 0;
    std::string payload;
  };

  Status Add(uint32_t kind, const std::string& name, uint64_t model_hash,
             uint64_t artifact_hash, std::string payload);

  std::vector<Pending> sections_;
};

}  // namespace store
}  // namespace gef

#endif  // GEF_STORE_STORE_BUILDER_H_
