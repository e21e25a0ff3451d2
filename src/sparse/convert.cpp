#include "sparse/convert.hpp"

namespace awb {

namespace {

/** Compressed arrays (CSR's rowPtr/colId/val or CSC's colPtr/rowId/val). */
struct Transposed
{
    std::vector<Count> ptr;
    std::vector<Index> idx;
    std::vector<Value> val;
};

/**
 * Counting transpose: `ptr`/`idx`/`val` hold `outer` lines over `inner`
 * positions. Visiting the lines in order makes every transposed line come
 * out sorted, so no per-line sort is needed.
 */
Transposed
transpose(Index outer, Index inner, const std::vector<Count> &ptr,
          const std::vector<Index> &idx, const std::vector<Value> &val)
{
    Transposed t;
    t.ptr.assign(static_cast<std::size_t>(inner) + 1, 0);
    for (Index i : idx) ++t.ptr[static_cast<std::size_t>(i) + 1];
    for (std::size_t j = 1; j < t.ptr.size(); ++j) t.ptr[j] += t.ptr[j - 1];
    t.idx.resize(idx.size());
    t.val.resize(val.size());
    std::vector<Count> cursor(t.ptr.begin(), t.ptr.end() - 1);
    for (Index o = 0; o < outer; ++o) {
        for (Count k = ptr[static_cast<std::size_t>(o)];
             k < ptr[static_cast<std::size_t>(o) + 1]; ++k) {
            const Index i = idx[static_cast<std::size_t>(k)];
            const auto at = static_cast<std::size_t>(
                cursor[static_cast<std::size_t>(i)]++);
            t.idx[at] = o;
            t.val[at] = val[static_cast<std::size_t>(k)];
        }
    }
    return t;
}

} // namespace

CscMatrix
csrToCsc(const CsrMatrix &a)
{
    Transposed t = transpose(a.rows(), a.cols(), a.rowPtr(), a.colId(),
                             a.val());
    return CscMatrix::fromParts(a.rows(), a.cols(), std::move(t.ptr),
                                std::move(t.idx), std::move(t.val));
}

CsrMatrix
cscToCsr(const CscMatrix &a)
{
    Transposed t = transpose(a.cols(), a.rows(), a.colPtr(), a.rowId(),
                             a.val());
    return CsrMatrix::fromParts(a.rows(), a.cols(), std::move(t.ptr),
                                std::move(t.idx), std::move(t.val));
}

DenseMatrix
cscToDense(const CscMatrix &a)
{
    DenseMatrix d(a.rows(), a.cols());
    for (Index j = 0; j < a.cols(); ++j) {
        for (Count k = a.colPtr()[static_cast<std::size_t>(j)];
             k < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++k) {
            d.at(a.rowId()[static_cast<std::size_t>(k)], j) =
                a.val()[static_cast<std::size_t>(k)];
        }
    }
    return d;
}

DenseMatrix
csrToDense(const CsrMatrix &a)
{
    DenseMatrix d(a.rows(), a.cols());
    for (Index i = 0; i < a.rows(); ++i) {
        for (Count k = a.rowPtr()[static_cast<std::size_t>(i)];
             k < a.rowPtr()[static_cast<std::size_t>(i) + 1]; ++k) {
            d.at(i, a.colId()[static_cast<std::size_t>(k)]) =
                a.val()[static_cast<std::size_t>(k)];
        }
    }
    return d;
}

DenseMatrix
cooToDense(const CooMatrix &a)
{
    DenseMatrix d(a.rows(), a.cols());
    for (const Triplet &t : a.entries()) d.at(t.row, t.col) += t.val;
    return d;
}

CsrMatrix
denseToCsr(const DenseMatrix &a)
{
    std::vector<Count> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
    std::vector<Index> col_id;
    std::vector<Value> val;
    for (Index i = 0; i < a.rows(); ++i) {
        for (Index j = 0; j < a.cols(); ++j) {
            if (a.at(i, j) == Value(0)) continue;
            col_id.push_back(j);
            val.push_back(a.at(i, j));
        }
        row_ptr[static_cast<std::size_t>(i) + 1] =
            static_cast<Count>(col_id.size());
    }
    return CsrMatrix::fromParts(a.rows(), a.cols(), std::move(row_ptr),
                                std::move(col_id), std::move(val));
}

CscMatrix
denseToCsc(const DenseMatrix &a)
{
    return csrToCsc(denseToCsr(a));
}

} // namespace awb
