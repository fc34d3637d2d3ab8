#include "serve/model_registry.h"

#include <chrono>
#include <utility>

#include "forest/lightgbm_import.h"
#include "forest/serialization.h"
#include "gef/explanation_io.h"
#include "obs/metrics.h"
#include "store/store_reader.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/validate.h"

namespace gef {
namespace serve {

Status ModelRegistry::LoadModel(const std::string& name,
                                const std::string& path,
                                const std::string& format) {
  StatusOr<Forest> forest = format == "lightgbm"
                                ? LoadLightGbmModel(path)
                                : LoadForest(path);
  if (!format.empty() && format != "gef" && format != "lightgbm") {
    return Status::InvalidArgument("unknown model format '" + format +
                                   "'");
  }
  if (!forest.ok()) return forest.status();
  return AddModel(name, std::move(forest).value(), path);
}

Status ModelRegistry::AddModel(
    const std::string& name, Forest forest, std::string source_path,
    std::shared_ptr<const GefExplanation> preloaded_explanation,
    uint64_t content_hash) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  Status valid = ValidateForest(forest);
  if (!valid.ok()) return valid;

  auto model = std::make_shared<ServedModel>();
  model->name = name;
  model->source_path = std::move(source_path);
  model->forest = std::move(forest);
  // A store load passes the pack-time hash (integrity-checked against
  // the section checksums) so registration does not re-serialize the
  // whole forest to text just to hash it.
  model->hash =
      content_hash != 0 ? content_hash : model->forest.ContentHash();
  // Flatten eagerly: requests hitting this model via the batcher go
  // straight to the compiled kernels without paying the compile.
  model->forest.Compiled();
  model->preloaded_explanation = std::move(preloaded_explanation);
  model->predict_prefix = "{\"model\":\"" + JsonEscapeString(name) +
                          "\",\"hash\":\"" + HashToHex(model->hash) +
                          "\",";

  bool replaced = false;
  size_t count = 0;
  {
    WriterMutexLock lock(mutex_);
    auto [it, inserted] = models_.insert_or_assign(name, std::move(model));
    (void)it;
    replaced = !inserted;
    count = models_.size();
  }
  obs::metrics::GetCounter(replaced ? "serve.model_swaps"
                                    : "serve.model_loads")
      .Add();
  obs::metrics::GetGauge("serve.models").Set(static_cast<double>(count));
  return Status::Ok();
}

Status ModelRegistry::LoadStore(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  auto reader = store::StoreReader::Open(path);
  if (!reader.ok()) return reader.status();
  const std::vector<std::string> names = reader->ForestNames();
  if (names.empty()) {
    return Status::InvalidArgument("store " + path +
                                   " contains no forests");
  }
  for (const std::string& name : names) {
    StatusOr<Forest> forest = reader->LoadForest(name);
    if (!forest.ok()) return forest.status();
    StatusOr<uint64_t> hash = reader->ForestHash(name);
    if (!hash.ok()) return hash.status();

    std::shared_ptr<const GefExplanation> explanation;
    StatusOr<std::string> surrogate = reader->SurrogateText(name);
    if (surrogate.ok()) {
      auto parsed = ExplanationFromString(surrogate.value());
      if (!parsed.ok()) {
        return Status::ParseError("store surrogate for '" + name +
                                  "' failed to parse: " +
                                  parsed.status().message());
      }
      explanation = std::shared_ptr<const GefExplanation>(
          std::move(parsed).value());
    } else if (surrogate.status().code() != StatusCode::kNotFound) {
      return surrogate.status();
    }

    if (Status s = AddModel(name, std::move(forest).value(), path,
                            std::move(explanation), hash.value());
        !s.ok()) {
      return s;
    }
  }
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  obs::metrics::GetCounter("store.loads").Add();
  obs::metrics::GetGauge("store.load_ms").Set(elapsed.count());
  obs::metrics::GetGauge("store.mmap_bytes")
      .Set(static_cast<double>(reader->mapped_bytes()));
  return Status::Ok();
}

std::shared_ptr<const ServedModel> ModelRegistry::Get(
    const std::string& name) const {
  ReaderMutexLock lock(mutex_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

std::shared_ptr<const ServedModel> ModelRegistry::GetOnly() const {
  ReaderMutexLock lock(mutex_);
  if (models_.size() != 1) return nullptr;
  return models_.begin()->second;
}

std::vector<std::shared_ptr<const ServedModel>> ModelRegistry::List()
    const {
  ReaderMutexLock lock(mutex_);
  std::vector<std::shared_ptr<const ServedModel>> out;
  out.reserve(models_.size());
  for (const auto& entry : models_) out.push_back(entry.second);
  return out;
}

bool ModelRegistry::Remove(const std::string& name) {
  size_t count = 0;
  bool erased = false;
  {
    WriterMutexLock lock(mutex_);
    erased = models_.erase(name) != 0;
    count = models_.size();
  }
  if (erased) {
    obs::metrics::GetGauge("serve.models")
        .Set(static_cast<double>(count));
  }
  return erased;
}

size_t ModelRegistry::size() const {
  ReaderMutexLock lock(mutex_);
  return models_.size();
}

}  // namespace serve
}  // namespace gef
