// Fixture (never compiled): a hot root runs a template over an executor,
// and the template calls ops.Emit / ops.Finish, which two executors define.
// The analyzer matches calls by name, so both executors' ops are reachable.
// TapeLikeOps waives each of its allocating calls at the call site; that
// waiver must neither make the other executor's op of the same name a leaf
// nor leak into the header of the definition that follows it. Expect one
// hot-alloc finding: SlotLikeOps::Finish's unwaived allocation.
#include <vector>

namespace fixture {

void GrowTape(std::vector<int>& v) {
  v.push_back(0);
}

struct TapeLikeOps {
  void Emit(std::vector<int>& v) {
    GrowTape(v);  // analyze:allow(alloc): executor call-site waiver
  }
  void Finish(std::vector<int>& v) {
    GrowTape(v);  // analyze:allow(alloc): executor call-site waiver
  }
};

struct SlotLikeOps {
  void Emit(std::vector<int>& v) {
    v.clear();
  }
  void Finish(std::vector<int>& v) {
    v.reserve(64);  // expect: hot-alloc via HotExecutorRoot -> Definition -> Finish
  }
};

template <typename Ops>
void Definition(Ops& ops, std::vector<int>& v) {
  ops.Emit(v);
  ops.Finish(v);
}

ADPA_HOT void HotExecutorRoot(std::vector<int>& v) {
  SlotLikeOps ops;
  Definition(ops, v);
}

}  // namespace fixture
