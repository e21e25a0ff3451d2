/**
 * @file
 * Conversions between the sparse/dense matrix representations.
 */

#pragma once

#include "sparse/coo.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace awb {

/** CSR -> CSC (counting transpose of the storage, same logical matrix). */
CscMatrix csrToCsc(const CsrMatrix &a);

/** CSC -> CSR. */
CsrMatrix cscToCsr(const CscMatrix &a);

/** Expand sparse to dense. */
DenseMatrix cscToDense(const CscMatrix &a);
DenseMatrix csrToDense(const CsrMatrix &a);
DenseMatrix cooToDense(const CooMatrix &a);

/** Dense -> CSC/CSR, dropping exact zeros. */
CscMatrix denseToCsc(const DenseMatrix &a);
CsrMatrix denseToCsr(const DenseMatrix &a);

} // namespace awb
