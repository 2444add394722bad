// Fixture: phase tags and region labels that are not in the canonical
// registries (src/analyze/registry.cpp). A canonical tag and label are
// mixed in to prove the pass does not over-fire.
namespace fixture {

struct PhaseScope {
  explicit PhaseScope(const char*) {}
};

void run(auto& map, auto& machine, bool fast) {
  PhaseScope ok("engine.spmv");          // canonical: silent
  PhaseScope typo("engine.bogus");       // unregistered tag
  PhaseScope pick(fast ? "native.spmv" : "native.bogus");  // one arm unregistered
  map.of(0, 64, "vector.dense");         // canonical: silent
  map.of(64, 64, "scratch.tmp");         // unregistered label
  machine.alloc(128, "tmp.region");      // unregistered label
}

}  // namespace fixture
