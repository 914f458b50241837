// An append-only sequence whose elements never move.
//
// Elements live in fixed chunks of about 64 KB (a power-of-two element
// count, at least one) that are allocated as the sequence reaches them and
// are never moved or resized, so a reference or pointer to an element stays
// valid until the store is cleared or destroyed, across any number of
// appends. Index access is a shift and a mask. A chunk's storage stays raw
// until elements are appended into it, so its pages are first touched as
// the sequence reaches them. The replay's growing state sits on it: the
// job table, the recorded series and the reservation book.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ps::util {

template <class T>
class ChunkedStore {
  template <bool Const>
  class Iter;

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::size_t kChunkSize =
      std::bit_floor(std::max<std::size_t>(kChunkBytes / sizeof(T), 1));
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "chunks come from the plain operator new");

  ChunkedStore() noexcept = default;
  ChunkedStore(std::initializer_list<T> values) { append_all(values); }
  ChunkedStore(const ChunkedStore& other) { append_all(other); }
  ChunkedStore(ChunkedStore&& other) noexcept
      : chunks_(std::move(other.chunks_)), size_(std::exchange(other.size_, 0)) {
    other.chunks_.clear();
  }
  ChunkedStore& operator=(const ChunkedStore& other) {
    if (this != &other) {
      clear();
      append_all(other);
    }
    return *this;
  }
  ChunkedStore& operator=(ChunkedStore&& other) noexcept {
    if (this != &other) {
      clear();
      chunks_ = std::move(other.chunks_);
      other.chunks_.clear();
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~ChunkedStore() { clear(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return chunks_[i / kChunkSize][i % kChunkSize]; }
  const T& operator[](std::size_t i) const noexcept {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }
  T& front() noexcept { return (*this)[0]; }
  const T& front() const noexcept { return (*this)[0]; }
  T& back() noexcept { return (*this)[size_ - 1]; }
  const T& back() const noexcept { return (*this)[size_ - 1]; }

  iterator begin() noexcept { return {this, 0}; }
  iterator end() noexcept { return {this, size_}; }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, size_}; }

  /// Appends T(args...) and returns it; no element already held moves.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * kChunkSize) {
      void* chunk = ::operator new(kChunkSize * sizeof(T));
      try {
        chunks_.push_back(static_cast<T*>(chunk));
      } catch (...) {
        ::operator delete(chunk);
        throw;
      }
    }
    T* slot = chunks_.back() + size_ % kChunkSize;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Destroys every element and frees every chunk.
  void clear() noexcept {
    for (std::size_t i = size_; i-- > 0;) (*this)[i].~T();
    for (T* chunk : chunks_) ::operator delete(chunk);
    chunks_.clear();
    size_ = 0;
  }

 private:
  /// Appends a copy of every element of `values`; on a throw the store is
  /// left empty.
  template <class Range>
  void append_all(const Range& values) {
    try {
      for (const T& value : values) emplace_back(value);
    } catch (...) {
      clear();
      throw;
    }
  }

  /// A position in the store; dereferencing indexes it, so an iterator
  /// taken before an append stays valid after it.
  template <bool Const>
  class Iter {
    using Store = std::conditional_t<Const, const ChunkedStore, ChunkedStore>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() noexcept = default;
    Iter(Store* store, std::size_t pos) noexcept : store_(store), pos_(pos) {}
    reference operator*() const noexcept { return (*store_)[pos_]; }
    pointer operator->() const noexcept { return &(*store_)[pos_]; }
    Iter& operator++() noexcept {
      ++pos_;
      return *this;
    }
    Iter operator++(int) noexcept {
      Iter before = *this;
      ++pos_;
      return before;
    }
    bool operator==(const Iter& other) const noexcept { return pos_ == other.pos_; }

   private:
    Store* store_ = nullptr;
    std::size_t pos_ = 0;
  };

  std::vector<T*> chunks_;
  std::size_t size_ = 0;
};

}  // namespace ps::util
