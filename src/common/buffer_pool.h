// A tiny object pool for the slot hot path: IQ sample buffers and other
// per-slot workspaces are acquired at the head of the pipeline and
// returned automatically when their RAII handle dies, so the steady state
// recycles a fixed working set instead of allocating per slot (see
// DESIGN.md "Hot-path memory discipline").
//
// The pool is deliberately simple: a mutex-guarded free list.  acquire()
// constructs a new object only when the free list is empty (warm-up);
// afterwards it is a pop_back.  The free-list vector's capacity is grown
// when objects are created, never on release, so release() is allocation
// free too.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace nrs {

template <typename T>
class BufferPool {
 public:
  /// RAII ownership of one pooled object; returns it on destruction.
  /// Handles must not outlive the pool (the pipeline tears its threads
  /// down before its pools for exactly this reason).
  class Handle {
   public:
    Handle() = default;
    Handle(T* object, BufferPool* pool) : object_(object), pool_(pool) {}
    Handle(Handle&& other) noexcept
        : object_(std::exchange(other.object_, nullptr)),
          pool_(std::exchange(other.pool_, nullptr)) {}
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        release();
        object_ = std::exchange(other.object_, nullptr);
        pool_ = std::exchange(other.pool_, nullptr);
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    /// Early return to the pool.
    void release() {
      if (object_ != nullptr) {
        pool_->put(object_);
        object_ = nullptr;
      }
    }

    [[nodiscard]] T& operator*() const { return *object_; }
    [[nodiscard]] T* operator->() const { return object_; }
    [[nodiscard]] T* get() const { return object_; }
    explicit operator bool() const { return object_ != nullptr; }

   private:
    T* object_ = nullptr;
    BufferPool* pool_ = nullptr;
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pop a recycled object, or construct T(args...) when the pool is dry.
  /// The constructor arguments are only used for brand-new objects;
  /// recycled ones come back in whatever state release() left them, so
  /// callers that care must reset the contents themselves (the
  /// pipeline's feeder overwrites each sample buffer it acquires).
  template <typename... Args>
  [[nodiscard]] Handle acquire(Args&&... args) {
    {
      std::lock_guard lock(mutex_);
      if (!free_.empty()) {
        T* object = free_.back();
        free_.pop_back();
        return Handle(object, this);
      }
    }
    // Warm-up path: construct outside the lock, then register.
    auto fresh = std::make_unique<T>(std::forward<Args>(args)...);
    T* object = fresh.get();
    {
      std::lock_guard lock(mutex_);
      owned_.push_back(std::move(fresh));
      // Reserve free-list capacity now (an allowed warm-up allocation) so
      // the eventual put() never reallocates.
      free_.reserve(owned_.size());
    }
    return Handle(object, this);
  }

  /// Pre-create `count` objects so steady state starts warm.
  template <typename... Args>
  void warm(std::size_t count, Args&&... args) {
    std::vector<Handle> handles;
    handles.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      handles.push_back(acquire(args...));
    }
    // Handles release back into the pool as the vector unwinds.
  }

  /// Objects ever constructed (pool high-water mark).
  [[nodiscard]] std::size_t created() const {
    std::lock_guard lock(mutex_);
    return owned_.size();
  }

  /// Objects currently idle in the pool.
  [[nodiscard]] std::size_t available() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  friend class Handle;

  void put(T* object) {
    std::lock_guard lock(mutex_);
    // Capacity was reserved at creation time; push_back cannot allocate.
    free_.push_back(object);
  }

  mutable std::mutex mutex_;
  std::vector<T*> free_;                  ///< idle objects (non-owning)
  std::vector<std::unique_ptr<T>> owned_; ///< every object ever created
};

}  // namespace nrs
