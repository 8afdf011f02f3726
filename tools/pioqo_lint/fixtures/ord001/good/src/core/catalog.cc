#include "core/catalog.h"

void Schedule(int page);

void Catalog::Flush() {
  for (auto& kv : pages_) Schedule(kv.first);
}

int Catalog::Find(int page) const {
  auto it = index_.find(page);
  return it == index_.end() ? -1 : it->second;
}
