// ... and the paired .cc iterates it, feeding event order.
#include "core/catalog.h"

void Schedule(int page);

void Catalog::Flush() {
  for (auto& kv : pages_) Schedule(kv.first);
}
