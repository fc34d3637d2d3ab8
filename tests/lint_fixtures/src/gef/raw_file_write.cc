// Planted violation: a raw file stream in library code.

namespace fixture {

void Save(const char* path) { std::ofstream out(path); }

}  // namespace fixture
