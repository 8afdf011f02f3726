// ORD001 good fixture: ordered iteration, and unordered lookups only.
#include <map>
#include <unordered_map>

class Catalog {
 public:
  void Flush();
  int Find(int page) const;

 private:
  std::map<int, int> pages_;
  std::unordered_map<int, int> index_;
};
