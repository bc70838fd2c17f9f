#include "io/mmio.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace grb {

Info read_matrix_market(Matrix** a, const std::string& path, Context* ctx) {
  if (a == nullptr) return Info::kNullPointer;
  std::ifstream in(path);
  if (!in) return Info::kInvalidValue;
  std::string line;
  if (!std::getline(in, line)) return Info::kInvalidValue;
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket" || object != "matrix" ||
      format != "coordinate")
    return Info::kInvalidValue;
  bool pattern = field == "pattern";
  bool symmetric = symmetry == "symmetric";
  if (field != "real" && field != "integer" && field != "pattern")
    return Info::kInvalidValue;
  if (symmetry != "general" && symmetry != "symmetric")
    return Info::kInvalidValue;

  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  // Nothing is sized from the header's entry count: a hostile count
  // would go straight into an allocation.  The vectors grow with the
  // entries actually read, and a short file fails at its end.
  std::istringstream dims(line);
  Index nrows = 0, ncols = 0, nnz = 0;
  if (!(dims >> nrows >> ncols >> nnz) || !(dims >> std::ws).eof())
    return Info::kInvalidValue;

  std::vector<Index> ri, ci;
  std::vector<double> vals;
  for (Index k = 0; k < nnz; ++k) {
    if (!std::getline(in, line)) return Info::kInvalidValue;
    std::istringstream row(line);
    Index i = 0, j = 0;
    double v = 1.0;
    if (!(row >> i >> j) || (!pattern && !(row >> v)) ||
        !(row >> std::ws).eof())
      return Info::kInvalidValue;
    if (i == 0 || j == 0 || i > nrows || j > ncols)
      return Info::kInvalidValue;
    ri.push_back(i - 1);
    ci.push_back(j - 1);
    vals.push_back(v);
    if (symmetric && i != j) {
      ri.push_back(j - 1);
      ci.push_back(i - 1);
      vals.push_back(v);
    }
  }
  Matrix* out = nullptr;
  GRB_RETURN_IF_ERROR(Matrix::new_(&out, TypeFP64(), nrows, ncols, ctx));
  const BinaryOp* dup = get_binary_op(BinOpCode::kPlus, TypeCode::kFP64);
  Info info = out->build(ri.data(), ci.data(), vals.data(),
                         static_cast<Index>(ri.size()), dup, TypeFP64());
  if (static_cast<int>(info) < 0) {
    Matrix::free(out);
    return info;
  }
  GRB_RETURN_IF_ERROR(out->wait(WaitMode::kMaterialize));
  *a = out;
  return Info::kSuccess;
}

Info write_matrix_market(const Matrix* a, const std::string& path) {
  GRB_RETURN_IF_ERROR(validate_objects({a}));
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&snap));
  if (!types_compatible(TypeFP64(), snap->type))
    return Info::kDomainMismatch;
  std::ofstream out(path);
  if (!out) return Info::kInvalidValue;
  out.precision(17);  // round-trip-exact doubles
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << snap->nrows << " " << snap->ncols << " " << snap->nvals() << "\n";
  CastFn cast = cast_fn(TypeFP64(), snap->type);
  for (Index r = 0; r < snap->nrows; ++r) {
    for (size_t k = snap->ptr[r]; k < snap->ptr[r + 1]; ++k) {
      double v;
      if (cast != nullptr) {
        cast(&v, snap->vals.at(k));
      } else {
        std::memcpy(&v, snap->vals.at(k), sizeof(double));
      }
      out << (r + 1) << " " << (snap->col[k] + 1) << " " << v << "\n";
    }
  }
  return out.good() ? Info::kSuccess : Info::kInvalidValue;
}

}  // namespace grb
