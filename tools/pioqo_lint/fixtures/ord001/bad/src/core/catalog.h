// ORD001 bad fixture: the unordered member lives in the header ...
#include <unordered_map>

class Catalog {
 public:
  void Flush();

 private:
  std::unordered_map<int, int> pages_;
};
